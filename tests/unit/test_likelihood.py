"""Unit tests for the MFC likelihood of Sec. III-B.

``g_link`` is the production per-link factor; the path enumeration and
the noisy-or likelihood built on it are the exact solvers' reference
in ``tests/oracles/exact.py``.
"""

import pytest

from repro.core.likelihood import g_link
from repro.errors import InvalidModelParameterError
from repro.graphs.signed_digraph import SignedDiGraph
from repro.types import NodeState, Sign
from tests.oracles.exact import (
    additive_score,
    iter_simple_paths,
    network_likelihood,
    node_infection_probability,
    path_probability,
)


class TestGLink:
    def test_consistent_positive_link_boosted(self):
        assert g_link(
            NodeState.POSITIVE, Sign.POSITIVE, NodeState.POSITIVE, 0.2, alpha=3.0
        ) == pytest.approx(0.6)

    def test_consistent_positive_link_clamped(self):
        assert g_link(
            NodeState.POSITIVE, Sign.POSITIVE, NodeState.POSITIVE, 0.5, alpha=3.0
        ) == 1.0

    def test_consistent_negative_link_raw_weight(self):
        # s(x) * s(x,y) = +1 * -1 = -1 = s(y): consistent negative link.
        assert g_link(
            NodeState.POSITIVE, Sign.NEGATIVE, NodeState.NEGATIVE, 0.2, alpha=3.0
        ) == pytest.approx(0.2)

    def test_inconsistent_link_zero(self):
        assert g_link(
            NodeState.POSITIVE, Sign.POSITIVE, NodeState.NEGATIVE, 0.9, alpha=3.0
        ) == 0.0

    def test_inconsistent_value_override(self):
        assert g_link(
            NodeState.POSITIVE,
            Sign.POSITIVE,
            NodeState.NEGATIVE,
            0.9,
            alpha=3.0,
            inconsistent_value=1.0,
        ) == 1.0

    def test_inactive_endpoint_scores_inconsistent(self):
        assert g_link(
            NodeState.INACTIVE, Sign.POSITIVE, NodeState.POSITIVE, 0.9, alpha=3.0
        ) == 0.0


class TestPathProbability:
    def test_product_along_consistent_path(self, small_cascade_tree):
        # r(+) -> a(+) via +0.5 (g = min(1, 1.5) = 1), a(+) -> c(+) via +0.9 (g = 1)
        assert path_probability(small_cascade_tree, ["r", "a", "c"], alpha=3.0) == 1.0

    def test_negative_link_consistent(self, small_cascade_tree):
        # r(+) -> b(-) via -0.4: consistent, g = 0.4 (no boost).
        assert path_probability(small_cascade_tree, ["r", "b"], alpha=3.0) == pytest.approx(0.4)

    def test_zero_short_circuits(self, small_cascade_tree):
        # Make c's state inconsistent with a -> c.
        small_cascade_tree.set_state("c", NodeState.NEGATIVE)
        assert path_probability(small_cascade_tree, ["r", "a", "c"], alpha=3.0) == 0.0


class TestIterSimplePaths:
    def test_enumerates_all_simple_paths(self):
        g = SignedDiGraph()
        g.add_edge("s", "a", 1, 0.5)
        g.add_edge("s", "b", 1, 0.5)
        g.add_edge("a", "t", 1, 0.5)
        g.add_edge("b", "t", 1, 0.5)
        paths = sorted(iter_simple_paths(g, "s", "t", max_paths=10, max_length=10))
        assert paths == [["s", "a", "t"], ["s", "b", "t"]]

    def test_respects_max_paths(self):
        g = SignedDiGraph()
        for i in range(5):
            g.add_edge("s", f"m{i}", 1, 0.5)
            g.add_edge(f"m{i}", "t", 1, 0.5)
        paths = list(iter_simple_paths(g, "s", "t", max_paths=3, max_length=10))
        assert len(paths) == 3

    def test_avoids_cycles(self):
        g = SignedDiGraph()
        g.add_edge("s", "a", 1, 0.5)
        g.add_edge("a", "s", 1, 0.5)
        g.add_edge("a", "t", 1, 0.5)
        paths = list(iter_simple_paths(g, "s", "t", max_paths=10, max_length=10))
        assert paths == [["s", "a", "t"]]


class TestNodeInfectionProbability:
    def test_initiator_matching_state_is_one(self, small_cascade_tree):
        p = node_infection_probability(
            small_cascade_tree, "r", {"r": NodeState.POSITIVE}, alpha=3.0
        )
        assert p == 1.0

    def test_initiator_mismatched_state_is_zero(self, small_cascade_tree):
        p = node_infection_probability(
            small_cascade_tree, "r", {"r": NodeState.NEGATIVE}, alpha=3.0
        )
        assert p == 0.0

    def test_unique_tree_path(self, small_cascade_tree):
        p = node_infection_probability(
            small_cascade_tree, "b", {"r": NodeState.POSITIVE}, alpha=3.0
        )
        assert p == pytest.approx(0.4)

    def test_noisy_or_over_parallel_paths(self):
        g = SignedDiGraph()
        g.add_edge("s", "a", -1, 0.5)
        g.add_edge("s", "b", -1, 0.5)
        g.add_edge("a", "t", 1, 0.1)
        g.add_edge("b", "t", 1, 0.1)
        g.set_states(
            {
                "s": NodeState.POSITIVE,
                "a": NodeState.NEGATIVE,
                "b": NodeState.NEGATIVE,
                "t": NodeState.NEGATIVE,
            }
        )
        # Each path: 0.5 (negative consistent) * 0.3 (boosted 3*0.1) = 0.15.
        p = node_infection_probability(g, "t", {"s": NodeState.POSITIVE}, alpha=3.0)
        assert p == pytest.approx(1 - (1 - 0.15) ** 2)

    def test_unreachable_node_zero(self, small_cascade_tree):
        p = node_infection_probability(
            small_cascade_tree, "r", {"c": NodeState.POSITIVE}, alpha=3.0
        )
        assert p == 0.0

    def test_alpha_below_one_rejected(self, small_cascade_tree):
        with pytest.raises(InvalidModelParameterError):
            node_infection_probability(
                small_cascade_tree, "a", {"r": NodeState.POSITIVE}, alpha=0.5
            )

    def test_initiator_absent_from_graph_ignored(self, small_cascade_tree):
        p = node_infection_probability(
            small_cascade_tree,
            "a",
            {"r": NodeState.POSITIVE, "zzz": NodeState.POSITIVE},
            alpha=3.0,
        )
        assert p == 1.0


class TestNetworkLikelihood:
    def test_perfect_explanation(self, small_cascade_tree):
        # With alpha=3, edges r->a (g=1), a->c (g=1), r->b (0.4), b->d (g ... )
        # b(-) -> d(-) via +0.3: consistent, boosted to 0.9.
        likelihood = network_likelihood(
            small_cascade_tree, {"r": NodeState.POSITIVE}, alpha=3.0
        )
        assert likelihood == pytest.approx(1.0 * 1.0 * 1.0 * 0.4 * (0.4 * 0.9))

    def test_zero_when_any_node_unexplained(self, small_cascade_tree):
        likelihood = network_likelihood(
            small_cascade_tree, {"a": NodeState.POSITIVE}, alpha=3.0
        )
        assert likelihood == 0.0  # r is unreachable from a

    def test_additive_score_counts_initiators(self, small_cascade_tree):
        score = additive_score(small_cascade_tree, {"r": NodeState.POSITIVE}, alpha=3.0)
        assert score == pytest.approx(1.0 + 1.0 + 1.0 + 0.4 + 0.36)
