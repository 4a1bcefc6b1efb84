"""Pins what RID's results, metrics and artifact caches must not move.

``test_pipeline_pins.py`` pins the steps' artifact keys and call-time
seams; this file pins what RID's three kinds of caller observe:

* ``RID()`` itself on one fixed snapshot: β ``detect``, then
  ``detect_with_budget``, each twice on one instance (cold, then warm),
  with the recorder both passed and ambient. Per call: a digest of the
  result's ``to_json()``, the counters, the timer names with their
  counts and the per-tree ``last_selections``. A warm call records no
  ``rid.extract_trees`` or ``rid.tree_dp`` timer, so the instance's
  artifact cache is pinned without naming it.
* a :class:`~repro.stream.StreamingDetectionEngine` replay: every step's
  ``DeltaReport``, reused and computed artifact counts and result.
* the served ``detect`` handler on one worker host, for ``rid``,
  ``rid_tree`` and ``rid_positive``: the response's ``cache`` block of
  a cold and then a warm request, and the host's
  ``serve.cache_temperature`` gauge after each.
"""

import dataclasses
import hashlib
import json

from repro.codec import encode_graph
from repro.core.rid import RID
from repro.obs.metrics import MetricsRecorder
from repro.obs.recorder import using_recorder
from repro.serve.pool import HANDLERS, WorkerHost
from repro.stream import StreamingDetectionEngine, synthetic_snapshot, synthetic_stream

BUDGET = 12  # any budget in [trees, nodes] = [6, 72]


def digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


def selections(detector):
    """``last_selections`` as ``(tree_size, k, scanned_k)`` per tree, plus
    a digest of every field (floats as ``float.hex``). β mode scans no
    budget, so its ``scanned_k`` is 0."""
    full = [
        [
            s.tree_size,
            s.k,
            s.scanned_k,
            s.score.hex(),
            s.penalized_objective.hex(),
            sorted([repr(n), int(state)] for n, state in s.initiators.items()),
        ]
        for s in detector.last_selections
    ]
    return [tuple(row[:3]) for row in full], digest(full)


#: Per call, in order: ``(json digest, counters, timer counts,
#: selections)``.
DETECT = [
    (
        "2583534454ff66890405f0fb0ab12e68",
        {
            "rid.components": 6,
            "rid.detected_initiators": 31,
            "rid.pruned_links": 0,
            "rid.trees": 6,
        },
        {
            "rid.binarize": 6,
            "rid.components": 1,
            "rid.detect": 1,
            "rid.extract_trees": 6,
            "rid.prune": 1,
            "rid.tree_dp": 6,
        },
        (
            [(12, 6, 0), (12, 6, 0), (12, 3, 0), (12, 5, 0), (12, 5, 0), (12, 6, 0)],
            "0db13f70bd02579ffac9304b5b300d5a",
        ),
    ),
    (
        "2583534454ff66890405f0fb0ab12e68",
        {
            "rid.components": 6,
            "rid.detected_initiators": 31,
            "rid.pruned_links": 0,
            "rid.trees": 6,
        },
        {"rid.detect": 1},
        (
            [(12, 6, 0), (12, 6, 0), (12, 3, 0), (12, 5, 0), (12, 5, 0), (12, 6, 0)],
            "0db13f70bd02579ffac9304b5b300d5a",
        ),
    ),
    (
        "3a94e2a58f554423567add15c94645af",
        {"rid.components": 6, "rid.k_iterations": 72, "rid.pruned_links": 0, "rid.trees": 6},
        {"rid.binarize": 6, "rid.detect_with_budget": 1, "rid.knapsack": 1, "rid.tree_dp": 6},
        (
            [(12, 2, 12), (12, 3, 12), (12, 1, 12), (12, 2, 12), (12, 2, 12), (12, 2, 12)],
            "25d2b282e4fe9d96da6c5ce01b324935",
        ),
    ),
    (
        "3a94e2a58f554423567add15c94645af",
        {"rid.components": 6, "rid.pruned_links": 0, "rid.trees": 6},
        {"rid.detect_with_budget": 1, "rid.knapsack": 1},
        (
            [(12, 2, 12), (12, 3, 12), (12, 1, 12), (12, 2, 12), (12, 2, 12), (12, 2, 12)],
            "25d2b282e4fe9d96da6c5ce01b324935",
        ),
    ),
]


def test_detect_cold_then_warm_is_pinned():
    graph, detector = synthetic_snapshot(components=6, size=12, seed=3), RID()
    calls = (
        lambda rec: detector.detect(graph, recorder=rec),
        lambda rec: detector.detect(graph, recorder=rec),
        lambda rec: detector.detect_with_budget(graph, BUDGET, recorder=rec),
        lambda rec: detector.detect_with_budget(graph, BUDGET, recorder=rec),
    )
    observed = []
    for call in calls:
        rec = MetricsRecorder()
        with using_recorder(rec):
            result = call(rec)
        observed.append(
            (
                digest(result.to_json()),
                dict(rec.metrics.counters),
                {timer: stat.count for timer, stat in rec.metrics.timers.items()},
                selections(detector),
            )
        )
    assert observed == DETECT


#: Per step: ``(DeltaReport fields, reused, computed, result digest)``.
STREAM = [
    ((0, 6, 3, 6, 7), 0, 15, "28ef3a7aae43bac68882188b9e44eac9"),
    ((1, 7, 4, 7, 10), 10, 12, "88b6f380261994f537ba908c93d0c61c"),
    ((2, 10, 6, 8, 12), 8, 17, "8a4f2b33f62b0dcc79717c5fd39e2f73"),
    ((3, 9, 7, 8, 13), 15, 12, "3007decc7af913629cb1c951e61e158e"),
    ((4, 8, 7, 5, 11), 13, 11, "3d501fac9d66b7a423b112a6d0fd8b4c"),
    ((5, 8, 5, 4, 10), 13, 11, "30f6dc17e42ea89dc6723cf2737b72a7"),
]


def test_stream_replay_is_pinned():
    snapshot, deltas = synthetic_stream(components=4, size=10, deltas=6, seed=5)
    replay = StreamingDetectionEngine(snapshot).replay(deltas)
    assert [
        (
            dataclasses.astuple(step.report),
            step.reused_artifacts,
            step.computed_artifacts,
            digest(step.result.to_json()),
        )
        for step in replay
    ] == STREAM


#: Per request, in order: ``(name, cache block, gauge (count, min, max,
#: total))``.
SERVED = [
    (
        "rid",
        {"computed_artifacts": 14, "engine": "cold", "graph": "cold", "reused_artifacts": 0},
        (1, 0.0, 0.0, 0.0),
    ),
    (
        "rid",
        {"computed_artifacts": 0, "engine": "hot", "graph": "hot", "reused_artifacts": 14},
        (2, 0.0, 0.5, 0.5),
    ),
    (
        "rid_tree",
        {"computed_artifacts": 7, "engine": "cold", "graph": "hot", "reused_artifacts": 0},
        (3, 0.0, 0.5, 0.9),
    ),
    (
        "rid_tree",
        {"computed_artifacts": 0, "engine": "hot", "graph": "hot", "reused_artifacts": 7},
        (4, 0.0, 0.5, 1.4),
    ),
    (
        "rid_positive",
        {"computed_artifacts": 21, "engine": "cold", "graph": "hot", "reused_artifacts": 0},
        (5, 0.0, 0.5, 1.7333333333333332),
    ),
    (
        "rid_positive",
        {"computed_artifacts": 0, "engine": "hot", "graph": "hot", "reused_artifacts": 21},
        (6, 0.0, 0.5, 2.2333333333333334),
    ),
]


def test_served_cache_blocks_are_pinned():
    host = WorkerHost(0, 8)
    graph = encode_graph(synthetic_snapshot(components=6, size=12, seed=3))
    observed = []
    for name in ("rid", "rid_tree", "rid_positive"):
        for _ in ("cold", "warm"):
            body = HANDLERS["detect"](host, {"graph": graph, "detector": name}, None)
            gauge = host.recorder.metrics.gauges["serve.cache_temperature"]
            observed.append(
                (name, body["cache"], (gauge.count, gauge.min, gauge.max, gauge.total))
            )
    assert observed == SERVED
