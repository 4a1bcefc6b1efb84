"""Unit tests for the RID pipeline and its baselines."""

import pytest

import tests.oracles.tree_dp as oracle
from repro.core.binarize import binarize_cascade_tree
from repro.detectors import RIDPositiveDetector, RIDTreeConfig, RIDTreeDetector
from repro.core.rid import RID, RIDConfig
from repro.errors import ConfigError
from repro.graphs.signed_digraph import SignedDiGraph
from repro.pipeline.stages import greedy_tree_selection
from repro.types import NodeState


def hand_built_infection() -> SignedDiGraph:
    """A planted cascade with one embedded second initiator.

    Cascade A (rooted at r1): r1(+) -> a(+) -> b(+), all strong positive
    consistent links (boost-saturated, g = 1). The second initiator r2 is
    embedded under b via a *weak* consistent negative link (b -> r2,
    weight 0.02), so r2 is not a forest root but is discoverable by the
    DP: splitting there gains 1 - 0.02 = 0.98, which beats β = 0.1 and
    loses to β = 1.0.
    """
    g = SignedDiGraph()
    g.add_edge("r1", "a", 1, 0.9)
    g.add_edge("a", "b", 1, 0.9)
    g.add_edge("b", "r2", -1, 0.02)  # weak, consistent (+ * -1 = -)
    g.set_states(
        {
            "r1": NodeState.POSITIVE,
            "a": NodeState.POSITIVE,
            "b": NodeState.POSITIVE,
            "r2": NodeState.NEGATIVE,
        }
    )
    return g


class TestRIDConfig:
    def test_defaults_valid(self):
        RIDConfig().validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": 0.5},
            {"beta": -0.1},
            {"score": "nope"},
            {"alpha": float("nan")},
            {"beta": float("nan")},
            {"alpha": float("inf")},
            {"beta": float("inf")},
            {"beta": float("-inf")},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            RID(RIDConfig(**kwargs))


class TestRIDDetection:
    def test_single_tree_root_detected(self, small_cascade_tree):
        result = RID(RIDConfig(beta=1.0)).detect(small_cascade_tree)
        assert "r" in result.initiators
        assert result.states["r"] is NodeState.POSITIVE

    def test_embedded_initiator_found_at_low_beta(self):
        infected = hand_built_infection()
        result = RID(RIDConfig(beta=0.1)).detect(infected)
        assert "r1" in result.initiators
        assert "r2" in result.initiators
        assert result.states["r2"] is NodeState.NEGATIVE

    def test_high_beta_keeps_tree_whole(self):
        infected = hand_built_infection()
        result = RID(RIDConfig(beta=1.0)).detect(infected)
        # Penalty 1.0 exceeds the 0.98 gain of splitting at r2.
        assert result.initiators == {"r1"}

    def test_beta_monotone_in_detections(self):
        infected = hand_built_infection()
        low = RID(RIDConfig(beta=0.0)).detect(infected)
        high = RID(RIDConfig(beta=1.0)).detect(infected)
        assert len(low.initiators) >= len(high.initiators)

    def test_exhaustive_at_least_as_good_as_greedy(self):
        # RID's exact selection against the paper's greedy stop, summed
        # over the same trees.
        config = RIDConfig(beta=0.3)
        exact = RID(config).detect(hand_built_infection())
        greedy = 0.0
        for tree in exact.trees:
            binary = binarize_cascade_tree(tree, alpha=config.alpha)
            best = oracle.greedy_stop(binary, config.beta)
            greedy += best.score - (best.k - 1) * config.beta
        assert exact.objective >= greedy - 1e-12

    def test_selections_diagnostics_populated(self):
        detector = RID(RIDConfig(beta=0.1))
        detector.detect(hand_built_infection())
        assert detector.last_selections
        assert all(s.k >= 1 for s in detector.last_selections)

    def test_states_cover_all_initiators(self):
        result = RID(RIDConfig(beta=0.1)).detect(hand_built_infection())
        assert set(result.states) == result.initiators

    def test_to_dict_is_json_ready(self):
        import json

        result = RID(RIDConfig(beta=0.1)).detect(hand_built_infection())
        payload = result.to_dict()
        encoded = json.dumps(payload)
        assert "rid" in encoded
        assert payload["num_trees"] == len(result.trees)
        assert sum(payload["tree_sizes"]) == sum(
            t.number_of_nodes() for t in result.trees
        )


class TestRIDTreeDetector:
    def test_roots_are_in_degree_zero_nodes(self):
        infected = hand_built_infection()
        result = RIDTreeDetector().detect(infected)
        assert result.initiators == {"r1"}

    def test_no_states_inferred(self):
        result = RIDTreeDetector().detect(hand_built_infection())
        assert result.states == {}

    def test_pruned_variant_splits_at_inconsistencies(self):
        infected = hand_built_infection()
        # Make the b -> r2 link inconsistent so pruning severs it.
        infected.set_state("r2", NodeState.POSITIVE)
        detector = RIDTreeDetector(RIDTreeConfig(prune_inconsistent=True))
        pruned = detector.detect(infected)
        assert pruned.initiators == {"r1", "r2"}


class TestRIDPositiveDetector:
    def test_negative_links_discarded(self):
        infected = hand_built_infection()
        result = RIDPositiveDetector().detect(infected)
        # Dropping b -> r2 (negative) makes r2 a root as well.
        assert result.initiators == {"r1", "r2"}

    def test_detects_more_or_equal_roots_than_tree(self):
        infected = hand_built_infection()
        tree = RIDTreeDetector().detect(infected)
        positive = RIDPositiveDetector().detect(infected)
        assert len(positive.initiators) >= len(tree.initiators)


class TestGreedyKSearchTies:
    """Pin the paper rule's behaviour when the penalised objective ties.

    The paper's scan (the oracle ``greedy_stop``) stops at the first k
    that *fails to improve* the penalised objective. An equal objective
    at k+1 is not an improvement, so it stops there, even when a
    strictly better k hides beyond the tie. ``best_over_k``, the exact
    selection RID's penalised pass computes, finds that k. These tests
    drive the oracle over a stubbed DP with a controlled score curve to
    make the tie exact.
    """

    #: score curve: objective(k) = score - (k-1)*beta with beta = 0.1
    #: k=1 -> 1.0, k=2 -> 1.0 (exact tie), k=3 -> 1.8 (hidden optimum).
    SCORES = {1: 1.0, 2: 1.1, 3: 2.0}

    class StubBinary:
        num_real = 3

    def _stub_dp(self, monkeypatch):
        from repro.kernel.tree_dp import TreeDPResult

        scores = self.SCORES
        asked = []

        class StubSolver:
            def __init__(self, binary):
                self.binary = binary

            def solve_score(self, k):
                asked.append(k)
                return scores[k]

            def solve(self, k):
                return TreeDPResult(
                    k=k,
                    score=scores[k],
                    initiators={f"n{i}": NodeState.POSITIVE for i in range(k)},
                )

        monkeypatch.setattr(oracle, "TreeDPKernel", StubSolver)
        return asked

    def test_tie_at_k_plus_one_stops_greedy(self, monkeypatch):
        asked = self._stub_dp(monkeypatch)
        best = oracle.greedy_stop(self.StubBinary(), 0.1)
        # k=2 ties k=1 (1.0 == 1.0): not an improvement, the scan stops.
        assert best.k == 1
        assert asked == [1, 2]
        assert best.score - (best.k - 1) * 0.1 == pytest.approx(1.0)

    def test_exhaustive_scans_past_the_tie(self, monkeypatch):
        asked = self._stub_dp(monkeypatch)
        best = oracle.best_over_k(self.StubBinary(), 0.1)
        # The scan over every k reaches the hidden optimum at k=3.
        assert best.k == 3
        assert asked == [1, 2, 3]
        assert best.score - (best.k - 1) * 0.1 == pytest.approx(1.8)

    def test_greedy_vs_exhaustive_disagreement_is_the_tie_cost(self, monkeypatch):
        self._stub_dp(monkeypatch)
        greedy = oracle.greedy_stop(self.StubBinary(), 0.1)
        exhaustive = oracle.best_over_k(self.StubBinary(), 0.1)
        assert exhaustive.score - 0.2 > greedy.score
        assert greedy.k < exhaustive.k


def weak_path() -> SignedDiGraph:
    """r -> a -> b over weak consistent links (g = 3 * 0.02 = 0.06)."""
    g = SignedDiGraph()
    g.add_edge("r", "a", 1, 0.02)
    g.add_edge("a", "b", 1, 0.02)
    g.set_states({node: NodeState.POSITIVE for node in "rab"})
    return g


class TestTreeDiagnostics:
    """β-mode per-tree diagnostics: ``rid.tree_dp.k_chosen`` and the β
    interval on which it stays optimal, ``rid.tree_dp.beta_low`` and
    ``rid.tree_dp.beta_high``."""

    def test_gauges_on_a_real_tree(self):
        from repro.obs import MetricsRecorder

        rec = MetricsRecorder()
        selection = greedy_tree_selection(
            RIDConfig(beta=0.1), hand_built_infection(), rec
        )
        gauges = rec.metrics.gauges
        assert (selection.k, selection.scanned_k) == (2, 0)
        assert gauges["rid.tree_dp.k_chosen"].total == 2
        # OPT(1) = 3.02 (r1 explains a, b and 0.02 of r2), OPT(2) = 4 =
        # OPT(3): k = 2 stays optimal for beta in [0, OPT(2) - OPT(1)].
        assert gauges["rid.tree_dp.beta_low"].total == 0.0
        assert gauges["rid.tree_dp.beta_high"].total == pytest.approx(0.98)
        assert "rid.k_iterations" not in rec.metrics.counters

    def test_cap_stop_has_no_margin_and_reconstructs_once(self, monkeypatch):
        """At β = 0 every node of the weak path is an initiator: k* is the
        tree's cap, nothing has more initiators, so the interval starts
        at 0. Without a recorder the stage runs one pass; the interval's
        extra passes run only for an enabled recorder."""
        import repro.core.rid as rid_module
        from repro.kernel.tree_dp import TreeDPKernel
        from repro.obs import MetricsRecorder

        passes = []

        class Counting(TreeDPKernel):
            def solve_penalized(self, beta):
                passes.append(beta)
                return super().solve_penalized(beta)

        monkeypatch.setattr(rid_module, "TreeDPKernel", Counting)
        selection = greedy_tree_selection(RIDConfig(beta=0.0), weak_path())
        assert (selection.k, passes) == (3, [0.0])

        rec = MetricsRecorder()
        greedy_tree_selection(RIDConfig(beta=0.0), weak_path(), rec)
        gauges = rec.metrics.gauges
        assert gauges["rid.tree_dp.k_chosen"].total == 3
        assert gauges["rid.tree_dp.beta_low"].total == 0.0
        # OPT(3) - OPT(2) = 1 - 0.06: the third initiator's gain.
        assert gauges["rid.tree_dp.beta_high"].total == pytest.approx(0.94)
        assert len(passes) > 2

    def test_single_initiator_interval_is_unbounded_above(self):
        from repro.obs import MetricsRecorder

        rec = MetricsRecorder()
        selection = greedy_tree_selection(RIDConfig(beta=1.0), hand_built_infection(), rec)
        gauges = rec.metrics.gauges
        assert selection.k == 1
        assert gauges["rid.tree_dp.beta_low"].total == pytest.approx(0.98)
        assert "rid.tree_dp.beta_high" not in gauges
