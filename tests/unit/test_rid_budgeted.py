"""Unit tests for RID's known-k (budgeted) detection mode."""

import pytest

from repro.core.rid import RID, RIDConfig
from repro.errors import ConfigError
from repro.graphs.signed_digraph import SignedDiGraph
from repro.types import NodeState


def two_tree_snapshot() -> SignedDiGraph:
    """Two separate cascade trees with an embedded weak link in tree A.

    Tree A: r1(+) -> a(+) [strong], a -> w(+) [very weak].
    Tree B: r2(-) -> b(-) [strong].
    """
    g = SignedDiGraph()
    g.add_edge("r1", "a", 1, 0.9)
    g.add_edge("a", "w", 1, 0.01)
    g.add_edge("r2", "b", 1, 0.9)
    g.set_states(
        {
            "r1": NodeState.POSITIVE,
            "a": NodeState.POSITIVE,
            "w": NodeState.POSITIVE,
            "r2": NodeState.NEGATIVE,
            "b": NodeState.NEGATIVE,
        }
    )
    return g


class TestBudgetValidation:
    def test_budget_below_tree_count_rejected(self):
        with pytest.raises(ConfigError):
            RID().detect_with_budget(two_tree_snapshot(), budget=1)

    def test_budget_above_node_count_rejected(self):
        with pytest.raises(ConfigError):
            RID().detect_with_budget(two_tree_snapshot(), budget=6)


class TestBudgetedDetection:
    def test_minimum_budget_returns_roots(self):
        result = RID().detect_with_budget(two_tree_snapshot(), budget=2)
        assert result.initiators == {"r1", "r2"}
        assert result.method == "rid(k=2)"

    def test_extra_budget_goes_to_weakest_link(self):
        result = RID().detect_with_budget(two_tree_snapshot(), budget=3)
        # The third initiator lands on w, the nearly unexplained node.
        assert result.initiators == {"r1", "r2", "w"}
        assert result.states["w"] is NodeState.POSITIVE

    def test_exact_count_respected(self):
        for budget in (2, 3, 4, 5):
            result = RID().detect_with_budget(two_tree_snapshot(), budget=budget)
            assert len(result.initiators) == budget

    def test_objective_monotone_in_budget(self):
        snapshots = two_tree_snapshot()
        objectives = [
            RID().detect_with_budget(snapshots, budget=b).objective
            for b in (2, 3, 4, 5)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(objectives, objectives[1:]))

    def test_full_budget_selects_everyone(self):
        result = RID().detect_with_budget(two_tree_snapshot(), budget=5)
        assert result.initiators == {"r1", "a", "w", "r2", "b"}
        assert result.objective == pytest.approx(5.0)

    def test_knapsack_prefers_productive_tree(self):
        # With budget 3 the knapsack must give tree A the extra initiator
        # (gain ~0.97 at w) rather than tree B (gain ~0.0 at b).
        detector = RID()
        detector.detect_with_budget(two_tree_snapshot(), budget=3)
        budgets = {s.k for s in detector.last_selections}
        assert budgets == {1, 2}

    def test_states_cover_detections(self):
        result = RID().detect_with_budget(two_tree_snapshot(), budget=3)
        assert set(result.states) == result.initiators


class TestEmptySnapshot:
    """A snapshot with zero infected nodes is well-formed for budget=0.

    Regression: the pre-refactor implementation crashed with
    EmptyInfectionError before validating the budget at all.
    """

    def test_budget_zero_returns_empty_result(self):
        detector = RID()
        result = detector.detect_with_budget(SignedDiGraph(), budget=0)
        assert result.initiators == set()
        assert result.states == {}
        assert result.trees == []
        assert result.objective == 0.0
        assert result.method == "rid(k=0)"
        assert detector.last_selections == []

    def test_nonzero_budget_rejected_with_range_message(self):
        with pytest.raises(ConfigError, match=r"budget must be in \[0, 0\]"):
            RID().detect_with_budget(SignedDiGraph(), budget=1)


class TestDiagnosticsConsistency:
    def test_tree_size_matches_beta_mode(self):
        """Both entry points must report the same per-tree sizes."""
        snapshot = two_tree_snapshot()
        beta_detector = RID()
        beta_detector.detect(snapshot)
        beta_sizes = sorted(s.tree_size for s in beta_detector.last_selections)
        budget_detector = RID()
        budget_detector.detect_with_budget(snapshot, budget=2)
        budget_sizes = sorted(s.tree_size for s in budget_detector.last_selections)
        assert budget_sizes == beta_sizes

    def test_tree_size_is_num_real_not_node_count(self, monkeypatch):
        """Regression: budgeted mode used ``tree.number_of_nodes()``
        while β mode used ``binary.num_real`` — incomparable if the
        binarisation's real-node bookkeeping ever diverges from the raw
        node count. Pin both entry points to ``binary.num_real``.
        """
        import repro.core.rid as rid_module

        real_binarize = rid_module.binarize_cascade_tree

        def shrunk_binarize(tree, alpha, inconsistent_value=0.0):
            binary = real_binarize(
                tree, alpha=alpha, inconsistent_value=inconsistent_value
            )
            binary.num_real = max(1, binary.num_real - 1)
            return binary

        monkeypatch.setattr(rid_module, "binarize_cascade_tree", shrunk_binarize)
        snapshot = two_tree_snapshot()
        # Trees have 3 (r1, a, w) and 2 (r2, b) nodes; shrunk num_real
        # gives 2 and 1.
        beta_detector = RID()
        beta_detector.detect(snapshot)
        assert sorted(s.tree_size for s in beta_detector.last_selections) == [1, 2]

        budget_detector = RID()
        budget_detector.detect_with_budget(snapshot, budget=2)
        assert sorted(s.tree_size for s in budget_detector.last_selections) == [1, 2]
