"""Pins what the detection pipeline's steps must not move.

* Every cached step's artifact key, and the bytes of the on-disk store,
  for one fixed snapshot. A change to a step's name, version, config
  fields or codec shows here, not as a store whose entries are silently
  never addressed again.
* Every module attribute the pipeline looks up at call time: the seams
  where tests stub the DP and the end-to-end benchmark's traced run
  wraps each layer. A plain and a budgeted ``repro.detect`` call each
  one, and a wrapper's answer is what the detect returns.
"""

import collections
import hashlib

import repro
import repro.core.rid as rid_module
from repro.core.rid import RID
from repro.pipeline import ArtifactCache, stages
from repro.runtime.config import RuntimeConfig
from repro.stream import synthetic_snapshot

#: Artifact keys of ``synthetic_snapshot(6, 12, seed=3)`` under
#: ``RIDConfig()``, per step, in the order RID asks for them.
KEYS = {
    "prune": ["9d55e4c43b441e15fa00f56e235ba21d"],
    "components": ["3845ad5c70323db37f1847808f97457c"],
    "arborescence": [
        "3cb609667da51df4f8096543e3abb833",
        "9e9b398222a87cc726bbb2986617a800",
        "ff02220613991ff914305d3662d22fdd",
        "3956ef11af2ecd59b7e3d089dee01726",
        "ed353df685afd28f61e475311f545569",
        "e7bf10ad9f4f94c8a7f62a82f5d9299b",
    ],
    "tree_dp[greedy]": [
        "2076d9b3b0c471bca8d12a122d192c39",
        "9d945b619d06662e457ddad43ba4c4b7",
        "81e96cdfe4b734bac3397784977344d1",
        "31463736e64df2aef59bc6a3206c876d",
        "5ca9fb188d58ba81ad5e42a008213da6",
        "aa227e197cfbc707821cdb757a4d6e25",
    ],
    "tree_dp[curve]": [
        "178c830fd25ddd9ef54f50f026a78afa",
        "cdba677e7da079f5964ad1d351ce3c94",
        "d948c1a05342118f7506f4515daa2770",
        "7e2e0c38b8f2bce3aa0364807623357f",
        "5b9b073b8f901ff12b9b197fe8ea0cc5",
        "1eb7cd44e3362a69829af6346a04e491",
    ],
}
#: blake2b-128 of the store's files, concatenated in file-name order.
STORE_DIGEST = "4a38968005b5330686e13dd917f5d661"

#: The attributes the pipeline looks up at call time: ``(owner, name)``.
SEAMS = (
    (stages, "prune_graph"),
    (stages, "split_components"),
    (stages, "maximum_spanning_branching"),
    (stages, "split_branching_into_trees"),
    (stages, "greedy_tree_selection"),
    (stages, "tree_curve"),
    (stages.SelectionStage, "merge_greedy"),
    (stages.SelectionStage, "knapsack"),
    (rid_module, "binarize_cascade_tree"),
)

BUDGET = 12  # any budget in [trees, nodes] = [6, 72]


def snapshot():
    return synthetic_snapshot(components=6, size=12, seed=3)


class KeyLog(ArtifactCache):
    """An artifact cache that logs every key it is asked for."""

    def __init__(self):
        super().__init__()
        self.keys = []

    def lookup(self, key):
        self.keys.append(key)
        return super().lookup(key)


def test_step_keys_and_store_bytes_are_pinned(tmp_path):
    graph, log = snapshot(), KeyLog()
    rid = RID()
    rid.cache = log
    runtime = RuntimeConfig(cache_dir=str(tmp_path))
    rid.detect(graph, runtime=runtime)
    rid.detect_with_budget(graph, BUDGET, runtime=runtime)
    assert len(log.keys) == 2 * 14  # prune, components, 6 arborescences, 6 tree DPs
    beta, budget = log.keys[:14], log.keys[14:]
    assert budget[:8] == beta[:8]  # the front half's keys ignore the budget
    assert {
        "prune": beta[:1],
        "components": beta[1:2],
        "arborescence": beta[2:8],
        "tree_dp[greedy]": beta[8:],
        "tree_dp[curve]": budget[8:],
    } == KEYS
    store = sorted((tmp_path / "pipeline").glob("*.json"))
    persisted = KEYS["arborescence"] + KEYS["tree_dp[greedy]"] + KEYS["tree_dp[curve]"]
    assert [path.stem for path in store] == sorted(persisted)
    content = b"".join(path.read_bytes() for path in store)
    assert hashlib.blake2b(content, digest_size=16).hexdigest() == STORE_DIGEST


def counting(fn, name, calls):
    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return counted


def test_every_seam_is_looked_up_at_call_time(monkeypatch):
    graph = snapshot()
    plain = repro.detect(graph.copy()).to_json()
    budgeted = repro.detect(graph.copy(), budget=BUDGET).to_json()
    calls = collections.Counter()
    for owner, name in SEAMS:
        monkeypatch.setattr(owner, name, counting(getattr(owner, name), name, calls))
    assert repro.detect(graph.copy()).to_json() == plain
    assert repro.detect(graph.copy(), budget=BUDGET).to_json() == budgeted
    assert sorted(calls) == sorted(name for _, name in SEAMS)
