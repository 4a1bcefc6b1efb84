"""Unit tests for the parallel trial-execution runtime."""

import json

import pytest

from repro.diffusion.base import ActivationEvent, DiffusionResult
from repro.diffusion.mfc import MFCModel
from repro.errors import ConfigError
from repro.graphs.signed_digraph import SignedDiGraph
from repro.runtime import (
    CacheCodecError,
    RuntimeConfig,
    TrialCache,
    graph_digest,
    model_digest,
    run_trials,
    seeds_digest,
    stable_digest,
)
from repro.types import NodeState
from repro.utils.rng import spawn_rng


def draw_trial(payload, trial):
    """A module-level (hence picklable) trial body with real randomness."""
    base_seed, digits = payload
    rng = spawn_rng(base_seed + trial, "draw")
    return round(rng.random(), digits)


def identity_trial(payload, spec):
    return (payload, spec)


def ring(n: int = 20) -> SignedDiGraph:
    g = SignedDiGraph()
    for i in range(n):
        g.add_edge(i, (i + 1) % n, 1 if i % 3 else -1, 0.5)
    return g


class TestRuntimeConfig:
    def test_defaults_serial(self):
        config = RuntimeConfig()
        config.validate()
        assert not config.parallel

    def test_workers_below_one_rejected(self):
        with pytest.raises(ConfigError):
            RuntimeConfig(workers=0).validate()

    def test_bad_chunk_size_rejected(self):
        with pytest.raises(ConfigError):
            RuntimeConfig(chunk_size=0).validate()

    def test_explicit_chunk_size_wins(self):
        assert RuntimeConfig(workers=4, chunk_size=3).resolve_chunk_size(100) == 3

    def test_auto_chunk_size_targets_four_chunks_per_worker(self):
        assert RuntimeConfig(workers=4).resolve_chunk_size(100) == 7

    def test_serial_chunk_size_is_everything(self):
        assert RuntimeConfig(workers=1).resolve_chunk_size(100) == 100


class TestRunTrials:
    def test_serial_results_in_spec_order(self):
        outcome = run_trials(identity_trial, "p", ["a", "b", "c"])
        assert outcome.results == [("p", "a"), ("p", "b"), ("p", "c")]
        assert outcome.report.fallback_reason == "workers=1"

    def test_parallel_bit_identical_to_serial(self):
        serial = run_trials(draw_trial, (7, 9), range(12))
        parallel = run_trials(
            draw_trial, (7, 9), range(12), config=RuntimeConfig(workers=3)
        )
        assert parallel.results == serial.results
        assert parallel.report.fallback_reason is None
        assert parallel.report.workers > 1

    def test_chunking_counts(self):
        outcome = run_trials(
            draw_trial,
            (1, 3),
            range(5),
            config=RuntimeConfig(workers=2, chunk_size=2),
        )
        assert outcome.report.chunks == 3

    def test_non_picklable_falls_back_to_serial(self):
        expected = [(None, s) for s in range(4)]
        outcome = run_trials(
            lambda payload, spec: (payload, spec),
            None,
            range(4),
            config=RuntimeConfig(workers=4),
        )
        assert outcome.results == expected
        assert outcome.report.fallback_reason == "inputs not picklable"

    def test_single_trial_stays_in_process(self):
        outcome = run_trials(
            draw_trial, (1, 3), [0], config=RuntimeConfig(workers=4)
        )
        assert outcome.report.fallback_reason == "single trial"

    def test_timings_cover_every_trial(self):
        outcome = run_trials(draw_trial, (1, 3), range(6))
        assert len(outcome.report.timings) == 6
        assert all(t.seconds >= 0.0 for t in outcome.report.timings)
        assert not any(t.cached for t in outcome.report.timings)
        assert outcome.report.compute_seconds >= 0.0


class TestTrialCache:
    def test_round_trip(self, tmp_path):
        cache = TrialCache(tmp_path)
        cache.store("k1", {"x": [1, 2]})
        assert cache.load("k1") == {"x": [1, 2]}
        assert "k1" in cache
        assert len(cache) == 1

    def test_miss_returns_none(self, tmp_path):
        assert TrialCache(tmp_path).load("absent") is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = TrialCache(tmp_path)
        (tmp_path / "bad.json").write_text("{not json")
        assert cache.load("bad") is None

    @pytest.mark.parametrize(
        "entry",
        [
            {"seeds": []},  # valid JSON, final_states missing: KeyError
            {"seeds": [[["i", 0], 7]], "final_states": [], "events": [], "rounds": 0},
            {"seeds": [[["i", 1.5], 1]], "final_states": [], "events": [], "rounds": 0},
            {"seeds": 3, "final_states": [], "events": [], "rounds": 0},
            # Decodable but for the wrong types: a coerced entry would be
            # used instead of recomputed.
            {"seeds": [], "final_states": [], "events": [], "rounds": "3"},
            {
                "seeds": [[["i", 0], 1]],
                "final_states": [[["i", 0], 1]],
                "events": [[0, None, ["i", 0], 1, "yes"]],
                "rounds": 0,
            },
        ],
    )
    def test_undecodable_entry_is_recomputed_and_overwritten(self, tmp_path, entry):
        from repro.diffusion.monte_carlo import simulate_many

        graph, seeds = ring(), {0: NodeState.POSITIVE, 5: NodeState.NEGATIVE}
        runtime = RuntimeConfig(cache_dir=str(tmp_path))
        model = MFCModel(alpha=2.0)
        first = simulate_many(model, graph, seeds, 3, base_seed=4, runtime=runtime)
        victim = sorted(tmp_path.glob("*.json"))[0]
        victim.write_text(json.dumps(dict(entry, format=DiffusionResult.JSON_FORMAT)))
        again = simulate_many(model, graph, seeds, 3, base_seed=4, runtime=runtime)
        assert [r.to_json() for r in again] == [r.to_json() for r in first]
        repaired = DiffusionResult.from_json(json.loads(victim.read_text()))
        assert repaired.to_json() in [r.to_json() for r in first]

    def test_untagged_entry_is_a_miss_not_a_misread(self, tmp_path):
        # An entry in the untagged layout (no "format" key), decodable
        # field by field, holding another trial's result: reading it
        # would replace this trial's result with the wrong one.
        from repro.diffusion.monte_carlo import simulate_many

        graph, seeds = ring(), {0: NodeState.POSITIVE, 5: NodeState.NEGATIVE}
        runtime = RuntimeConfig(cache_dir=str(tmp_path))
        model = MFCModel(alpha=2.0)
        first = simulate_many(model, graph, seeds, 3, base_seed=4, runtime=runtime)
        stale = model.run(graph, {0: NodeState.NEGATIVE}, rng=99).to_json()
        del stale["format"]
        for victim in tmp_path.glob("*.json"):
            victim.write_text(json.dumps(stale))
        again = simulate_many(model, graph, seeds, 3, base_seed=4, runtime=runtime)
        assert [r.to_json() for r in again] == [r.to_json() for r in first]
        for victim in tmp_path.glob("*.json"):
            assert json.loads(victim.read_text())["format"] == DiffusionResult.JSON_FORMAT

    @pytest.mark.parametrize(
        "entry",
        [
            {"graphs": [[1]]},  # a tree that is a JSON array, not an object
            {"graphs": {}},  # not a list: would read as a component without trees
            {"graphs": [{"nodes": [[["i", 0], 1], [["i", 0], 1]], "edges": []}]},
            {"graphs": [{"nodes": [[["i", 0], 1]], "edges": [[["i", 0], ["i", 9], 1, 0.5]]}]},
            {
                "graphs": [
                    {
                        "nodes": [[["i", 0], 1], [["i", 1], 1]],
                        "edges": [[["i", 0], ["i", 1], 1, 0.5], [["i", 0], ["i", 1], 1, 0.9]],
                    }
                ]
            },
        ],
    )
    def test_undecodable_artifact_is_recomputed_and_overwritten(self, tmp_path, entry):
        import repro
        from repro.stream import synthetic_snapshot

        snapshot = synthetic_snapshot(components=2, size=6, seed=1)
        runtime = RuntimeConfig(cache_dir=str(tmp_path))
        first = repro.detect(snapshot, runtime=runtime)
        entries = sorted((tmp_path / "pipeline").glob("*.json"))
        assert entries
        for victim in entries:
            victim.write_text(json.dumps(entry))
        again = repro.detect(snapshot, runtime=runtime)
        assert again.to_json() == first.to_json()
        for victim in entries:
            assert json.loads(victim.read_text()) != entry

    @pytest.mark.parametrize(
        "budget, mutate",
        [
            (None, lambda entry: entry.update(tree_size=True)),
            (None, lambda entry: entry.update(k="1")),
            (None, lambda entry: entry.update(score="0.5")),
            (None, lambda entry: entry.update(penalized_objective="0.5")),
            (None, lambda entry: entry.update(scanned_k=1.0)),
            (4, lambda entry: entry.update(tree_size=True)),
            (4, lambda entry: entry.update(curve={})),
            (4, lambda entry: [p.update(score=str(p["score"])) for p in entry["curve"]]),
            (4, lambda entry: [p.update(k=p["k"] + 1) for p in entry["curve"]]),
        ],
        ids=[
            "greedy-tree_size-bool",
            "greedy-k-str",
            "greedy-score-str",
            "greedy-objective-str",
            "greedy-scanned_k-float",
            "curve-tree_size-bool",
            "curve-not-a-list",
            "curve-score-str",
            "curve-k-shifted",
        ],
    )
    def test_mistyped_tree_dp_artifact_is_recomputed_and_overwritten(
        self, tmp_path, budget, mutate
    ):
        # A tree_dp entry whose fields have the wrong JSON type must not
        # be used (or crash the selection); it is recomputed and rewritten.
        from repro.core.rid import RID
        from repro.stream import synthetic_snapshot

        snapshot = synthetic_snapshot(components=2, size=6, seed=1)
        runtime = RuntimeConfig(cache_dir=str(tmp_path))

        def detect():
            detector = RID(runtime=runtime)  # a fresh memory cache: read the disk
            if budget is None:
                result = detector.detect(snapshot)
            else:
                result = detector.detect_with_budget(snapshot, budget=budget)
            return result.to_json(), detector.last_selections

        first = detect()
        originals = {
            path: path.read_text()
            for path in (tmp_path / "pipeline").glob("*.json")
            if "tree_size" in json.loads(path.read_text())
        }
        assert originals
        for path, text in originals.items():
            entry = json.loads(text)
            mutate(entry)
            path.write_text(json.dumps(entry))
        assert detect() == first
        for path, text in originals.items():
            assert path.read_text() == text

    def test_run_trials_uses_cache(self, tmp_path):
        cache = TrialCache(tmp_path)
        key_fn = lambda spec: stable_digest("t", spec)  # noqa: E731
        kwargs = dict(
            cache=cache,
            key_fn=key_fn,
            encode=lambda value: {"v": value},
            decode=lambda payload: payload["v"],
        )
        first = run_trials(draw_trial, (3, 6), range(5), **kwargs)
        second = run_trials(draw_trial, (3, 6), range(5), **kwargs)
        assert first.report.cache_hits == 0
        assert second.report.cache_hits == 5
        assert second.results == first.results
        assert all(t.cached for t in second.report.timings)

    def test_codec_error_skips_caching(self, tmp_path):
        cache = TrialCache(tmp_path)

        def refuse(value):
            raise CacheCodecError("nope")

        outcome = run_trials(
            draw_trial,
            (3, 6),
            range(3),
            cache=cache,
            key_fn=lambda spec: stable_digest("t", spec),
            encode=refuse,
            decode=lambda payload: payload,
        )
        assert len(outcome.results) == 3
        assert len(cache) == 0


class TestDigests:
    def test_graph_digest_stable_across_copies(self):
        g = ring()
        assert graph_digest(g) == graph_digest(g.copy())

    def test_graph_digest_sees_weights(self):
        g, h = ring(), ring()
        h.set_weight(0, 1, 0.51)
        assert graph_digest(g) != graph_digest(h)

    def test_graph_digest_sees_states(self):
        g, h = ring(), ring()
        h.set_state(0, NodeState.POSITIVE)
        assert graph_digest(g) != graph_digest(h)

    def test_model_digest_sees_parameters(self):
        assert model_digest(MFCModel(alpha=2.0)) != model_digest(MFCModel(alpha=3.0))

    def test_seeds_digest_order_independent(self):
        a = {1: NodeState.POSITIVE, 2: NodeState.NEGATIVE}
        b = {2: NodeState.NEGATIVE, 1: NodeState.POSITIVE}
        assert seeds_digest(a) == seeds_digest(b)


class TestDiffusionResultCodec:
    def test_round_trip(self):
        model = MFCModel(alpha=2.0)
        result = model.run(ring(), {0: NodeState.POSITIVE, 5: NodeState.NEGATIVE}, rng=3)
        payload = result.to_json()
        json.dumps(payload)  # genuinely JSON-serialisable
        decoded = DiffusionResult.from_json(payload)
        assert decoded.seeds == result.seeds
        assert decoded.final_states == result.final_states
        assert decoded.events == result.events
        assert decoded.rounds == result.rounds

    def test_string_nodes_round_trip(self):
        result = DiffusionResult(
            seeds={"a": NodeState.POSITIVE},
            final_states={"a": NodeState.POSITIVE, "b": NodeState.NEGATIVE},
            events=[
                ActivationEvent(round=0, source=None, target="a", state=NodeState.POSITIVE),
                ActivationEvent(
                    round=1, source="a", target="b", state=NodeState.NEGATIVE, was_flip=True
                ),
            ],
            rounds=1,
        )
        decoded = DiffusionResult.from_json(result.to_json())
        assert decoded == result

    def test_exotic_nodes_rejected(self):
        result = DiffusionResult(
            seeds={("tuple", "node"): NodeState.POSITIVE},
            final_states={("tuple", "node"): NodeState.POSITIVE},
        )
        with pytest.raises(CacheCodecError):
            result.to_json()

    def test_bool_nodes_rejected(self):
        # bool is an int subclass; a silent int round-trip would change
        # the node's identity, so the codec must refuse it.
        result = DiffusionResult(
            seeds={True: NodeState.POSITIVE},
            final_states={True: NodeState.POSITIVE},
        )
        with pytest.raises(CacheCodecError):
            result.to_json()
