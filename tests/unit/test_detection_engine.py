"""Unit tests for the staged detection engine (repro.pipeline).

Covers multi-component snapshots (budget split, single-node components,
lone-root arborescences), the two-layer artifact cache, and engine/RID
parity on the awkward component shapes.
"""

import pytest

from repro.core.rid import RID, RIDConfig
from repro.errors import ConfigError
from repro.graphs.signed_digraph import SignedDiGraph
from repro.obs import MetricsRecorder
from repro.pipeline import ArtifactCache, DetectionEngine
from repro.pipeline.cache import MISS
from repro.runtime.config import RuntimeConfig
from repro.types import NodeState
from tests.oracles.rid_reference import reference_detect, reference_detect_with_budget


def multi_component_snapshot() -> SignedDiGraph:
    """Three infected components of very different shapes.

    * chain:  c1(+) -> c2(+) [0.9] -> c3(+) [0.05]  (weak tail)
    * pair:   p1(-) -> p2(-) [0.8]
    * singleton: s1(+)  (no edges at all — a lone-root arborescence)
    """
    g = SignedDiGraph(name="multi")
    g.add_edge("c1", "c2", 1, 0.9)
    g.add_edge("c2", "c3", 1, 0.05)
    g.add_edge("p1", "p2", 1, 0.8)
    g.add_node("s1", NodeState.POSITIVE)
    g.set_states(
        {
            "c1": NodeState.POSITIVE,
            "c2": NodeState.POSITIVE,
            "c3": NodeState.POSITIVE,
            "p1": NodeState.NEGATIVE,
            "p2": NodeState.NEGATIVE,
        }
    )
    return g


def pruned_apart_snapshot() -> SignedDiGraph:
    """One weak component that pruning splits into two lone roots.

    The only link is sign-inconsistent (x(+) -+-> y(-)), so Sec. III-E1
    pruning removes it and each node becomes its own component whose
    arborescence is a lone root.
    """
    g = SignedDiGraph(name="pruned-apart")
    g.add_edge("x", "y", 1, 0.5)
    g.set_states({"x": NodeState.POSITIVE, "y": NodeState.NEGATIVE})
    return g


class TestMultiComponent:
    def test_beta_mode_detects_all_component_roots(self):
        result = RID().detect(multi_component_snapshot())
        assert {"c1", "p1", "s1"} <= result.initiators
        assert result.states["s1"] is NodeState.POSITIVE

    def test_budget_split_across_components(self):
        """Extra budget lands on the weak chain tail, not the other trees."""
        detector = RID()
        result = detector.detect_with_budget(multi_component_snapshot(), budget=4)
        assert result.initiators == {"c1", "p1", "s1", "c3"}
        # One initiator per tree, two for the chain.
        assert sorted(s.k for s in detector.last_selections) == [1, 1, 2]

    def test_budget_counts_singletons(self):
        # 3 trees / 6 nodes bound the feasible budget range.
        with pytest.raises(ConfigError, match=r"\[3, 6\]"):
            RID().detect_with_budget(multi_component_snapshot(), budget=2)
        with pytest.raises(ConfigError, match=r"\[3, 6\]"):
            RID().detect_with_budget(multi_component_snapshot(), budget=7)

    def test_single_node_component_yields_lone_root_selection(self):
        detector = RID()
        detector.detect(multi_component_snapshot())
        lone = [s for s in detector.last_selections if s.tree_size == 1]
        assert len(lone) == 1
        assert set(lone[0].initiators) == {"s1"}
        assert lone[0].k == 1

    def test_pruning_can_create_lone_root_components(self):
        result = RID().detect(pruned_apart_snapshot())
        # Both nodes become their own tree; both are initiators.
        assert result.initiators == {"x", "y"}
        assert len(result.trees) == 2
        assert all(t.number_of_nodes() == 1 for t in result.trees)

    def test_matches_reference_implementation(self):
        snapshot = multi_component_snapshot()
        config = RIDConfig()
        expected, _ = reference_detect(config, snapshot)
        actual = RID(config).detect(snapshot)
        assert actual.initiators == expected.initiators
        assert actual.states == expected.states
        assert actual.objective == expected.objective
        assert [sorted(map(repr, t.nodes())) for t in actual.trees] == [
            sorted(map(repr, t.nodes())) for t in expected.trees
        ]

    def test_budget_matches_reference_implementation(self):
        snapshot = multi_component_snapshot()
        config = RIDConfig()
        for budget in (3, 4, 5, 6):
            expected, _ = reference_detect_with_budget(config, snapshot, budget)
            actual = RID(config).detect_with_budget(snapshot, budget=budget)
            assert actual.initiators == expected.initiators
            assert actual.objective == expected.objective


class TestParallelIdentity:
    def test_workers_two_matches_serial(self):
        snapshot = multi_component_snapshot()
        serial = RID().detect(snapshot)
        parallel = RID().detect(
            snapshot, runtime=RuntimeConfig(workers=2, chunk_size=1)
        )
        assert parallel.initiators == serial.initiators
        assert parallel.states == serial.states
        assert parallel.objective == serial.objective

    def test_workers_two_budget_matches_serial(self):
        snapshot = multi_component_snapshot()
        serial = RID().detect_with_budget(snapshot, budget=4)
        parallel = RID().detect_with_budget(
            snapshot, budget=4, runtime=RuntimeConfig(workers=2, chunk_size=1)
        )
        assert parallel.initiators == serial.initiators
        assert parallel.objective == serial.objective


class TestArtifactCaching:
    def test_repeat_detect_hits_cache(self):
        snapshot = multi_component_snapshot()
        detector = RID()
        first = detector.detect(snapshot)
        misses_after_first = detector.engine.cache_stats()["misses"]
        second = detector.detect(snapshot)
        stats = detector.engine.cache_stats()
        assert stats["hits"] > 0
        assert stats["misses"] == misses_after_first  # no new work
        assert second.initiators == first.initiators
        assert second.objective == first.objective

    def test_budget_sweep_reuses_curves(self):
        """The curve cache key excludes the budget, so a sweep computes
        each tree's DP curve exactly once."""
        snapshot = multi_component_snapshot()
        detector = RID()
        detector.detect_with_budget(snapshot, budget=3)
        misses_after_first = detector.engine.cache_stats()["misses"]
        for budget in (4, 5, 6):
            detector.detect_with_budget(snapshot, budget=budget)
        assert detector.engine.cache_stats()["misses"] == misses_after_first

    def test_structural_counters_survive_cache_hits(self):
        """rid.components / rid.trees etc. are emitted outside cached
        compute, so metrics are cache-temperature independent."""
        snapshot = multi_component_snapshot()
        detector = RID()
        detector.detect(snapshot)  # warm the cache
        recorder = MetricsRecorder()
        detector.detect(snapshot, recorder=recorder)
        counters = recorder.metrics.counters
        assert counters["rid.components"] == 3
        assert counters["rid.trees"] == 3
        # c1, c3 (the weak tail beats β), p1, s1
        assert counters["rid.detected_initiators"] == 4

    def test_config_change_invalidates(self):
        snapshot = multi_component_snapshot()
        engine = DetectionEngine()
        a = engine.detect(RIDConfig(beta=0.1), snapshot)
        b = engine.detect(RIDConfig(beta=10.0), snapshot)
        # Different beta must not serve the other config's selections.
        assert a.result.objective != b.result.objective

    def test_caches_are_per_engine(self):
        snapshot = multi_component_snapshot()
        first = RID()
        first.detect(snapshot)
        second = RID()
        second.detect(snapshot)
        assert second.engine.cache_stats()["hits"] == 0

    def test_shared_engine_shares_artifacts(self):
        snapshot = multi_component_snapshot()
        engine = DetectionEngine()
        RID(engine=engine).detect(snapshot)
        RID(engine=engine).detect(snapshot)
        assert engine.cache_stats()["hits"] > 0

    def test_persistent_store_round_trip(self, tmp_path):
        snapshot = multi_component_snapshot()
        runtime = RuntimeConfig(cache_dir=str(tmp_path))
        cold = RID().detect(snapshot, runtime=runtime)
        # A fresh engine (empty in-process cache) must reload persisted
        # arborescence/DP artifacts from disk and agree exactly.
        warm_detector = RID()
        warm = warm_detector.detect(snapshot, runtime=runtime)
        assert warm.initiators == cold.initiators
        assert warm.states == cold.states
        assert warm.objective == cold.objective
        assert (tmp_path / "pipeline").exists()


class TestArtifactCacheUnit:
    def test_lru_eviction(self):
        cache = ArtifactCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.lookup("a") == 1  # refresh a
        cache.put("c", 3)  # evicts b
        assert cache.lookup("b") is MISS
        assert cache.lookup("a") == 1
        assert cache.lookup("c") == 3

    def test_stats_track_hits_and_misses(self):
        cache = ArtifactCache()
        cache.lookup("nope")
        cache.put("yes", 42)
        cache.lookup("yes")
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["entries"] == 1

    def test_clear(self):
        cache = ArtifactCache()
        cache.put("k", "v")
        cache.clear()
        assert cache.lookup("k") is MISS

    def test_eviction_order_is_lru_not_insertion(self):
        """Eviction must follow recency (lookups and puts refresh), not
        insertion order."""
        cache = ArtifactCache(max_entries=3)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        assert cache.lookup("a") == 1   # a most recent
        cache.put("b", 20)              # b refreshed
        cache.put("d", 4)               # evicts c (the true LRU), not a
        assert cache.keys() == ["a", "b", "d"]
        assert cache.lookup("c") is MISS
        assert cache.stats()["evictions"] == 1

    def test_discard_unknown_key_is_false(self):
        cache = ArtifactCache()
        assert not cache.discard("absent")
