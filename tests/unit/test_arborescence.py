"""Unit tests for the Chu-Liu/Edmonds arborescence machinery."""

import math

import pytest

from repro.core.arborescence import (
    branching_roots,
    find_circles,
    log_score,
    maximum_spanning_branching,
    maximum_weight_spanning_graph,
    raw_score,
    split_branching_into_trees,
)
from repro.graphs.generators.trees import is_arborescence
from repro.graphs.signed_digraph import SignedDiGraph
from repro.types import NodeState


def build(edges) -> SignedDiGraph:
    g = SignedDiGraph()
    for u, v, w in edges:
        g.add_edge(u, v, 1, w)
    return g


class TestScoreTransforms:
    def test_log_score_monotone(self):
        assert log_score(0.9) > log_score(0.1)

    def test_log_score_handles_zero(self):
        assert math.isfinite(log_score(0.0))

    def test_raw_score_identity(self):
        assert raw_score(0.37) == 0.37


class TestMWSG:
    def test_each_node_picks_best_in_edge(self):
        g = build([(0, 2, 0.3), (1, 2, 0.8), (0, 1, 0.5)])
        best = maximum_weight_spanning_graph(g)
        assert best[2][0] == 1  # 0.8 beats 0.3
        assert best[1][0] == 0

    def test_in_degree_zero_nodes_absent(self):
        g = build([(0, 1, 0.5)])
        best = maximum_weight_spanning_graph(g)
        assert 0 not in best
        assert 1 in best

    def test_self_loops_ignored(self):
        g = build([(0, 0, 0.9), (1, 0, 0.2)])
        best = maximum_weight_spanning_graph(g)
        assert best[0][0] == 1


class TestFindCircles:
    def test_no_cycle(self):
        assert find_circles({1: 0, 2: 1}) == []

    def test_two_cycle(self):
        cycles = find_circles({0: 1, 1: 0})
        assert len(cycles) == 1
        assert set(cycles[0]) == {0, 1}

    def test_cycle_with_tail(self):
        # 3 -> 2 -> 0 <-> 1
        cycles = find_circles({0: 1, 1: 0, 2: 0, 3: 2})
        assert len(cycles) == 1
        assert set(cycles[0]) == {0, 1}

    def test_multiple_disjoint_cycles(self):
        cycles = find_circles({0: 1, 1: 0, 2: 3, 3: 2})
        assert len(cycles) == 2
        assert {frozenset(c) for c in cycles} == {frozenset({0, 1}), frozenset({2, 3})}


class TestMaximumSpanningBranching:
    def test_empty_graph(self):
        forest = maximum_spanning_branching(SignedDiGraph())
        assert forest.number_of_nodes() == 0

    def test_single_node(self):
        g = SignedDiGraph()
        g.add_node("x", NodeState.POSITIVE)
        forest = maximum_spanning_branching(g)
        assert forest.nodes() == ["x"]
        assert forest.state("x") is NodeState.POSITIVE

    def test_tree_input_returned_unchanged(self):
        g = build([(0, 1, 0.5), (0, 2, 0.7), (2, 3, 0.2)])
        forest = maximum_spanning_branching(g)
        assert {(u, v) for u, v, _ in forest.iter_edges()} == {
            (0, 1),
            (0, 2),
            (2, 3),
        }

    def test_picks_heavier_parents(self):
        g = build([(0, 2, 0.1), (1, 2, 0.9), (0, 1, 0.5)])
        forest = maximum_spanning_branching(g)
        assert forest.has_edge(1, 2)
        assert not forest.has_edge(0, 2)

    def test_breaks_source_cycle_minimally(self):
        # 0 <-> 1 with no external entry: one must become a root and the
        # heavier cycle edge is kept.
        g = build([(0, 1, 0.9), (1, 0, 0.3)])
        forest = maximum_spanning_branching(g)
        assert forest.has_edge(0, 1)
        assert not forest.has_edge(1, 0)
        assert branching_roots(forest) == [0]

    def test_result_is_forest_of_arborescences(self):
        g = build(
            [
                (0, 1, 0.4),
                (1, 2, 0.6),
                (2, 0, 0.5),
                (3, 2, 0.2),
                (2, 3, 0.8),
                (4, 5, 0.9),
            ]
        )
        forest = maximum_spanning_branching(g)
        assert all(forest.in_degree(v) <= 1 for v in forest.nodes())
        # Per-root reachability partition covers everything: no cycles.
        trees = split_branching_into_trees(forest)
        assert sum(t.number_of_nodes() for t in trees) == forest.number_of_nodes()
        assert all(is_arborescence(t) for t in trees)

    def test_every_node_with_usable_parent_gets_one(self):
        g = build([(0, 1, 0.5), (0, 2, 0.5), (1, 3, 0.5)])
        forest = maximum_spanning_branching(g)
        assert branching_roots(forest) == [0]

    def test_states_copied_to_forest(self):
        g = build([(0, 1, 0.5)])
        g.set_state(1, NodeState.NEGATIVE)
        forest = maximum_spanning_branching(g)
        assert forest.state(1) is NodeState.NEGATIVE

    def test_raw_score_also_valid_branching(self):
        g = build([(0, 1, 0.4), (1, 0, 0.6), (1, 2, 0.2), (2, 1, 0.9)])
        forest = maximum_spanning_branching(g, score="raw")
        assert all(forest.in_degree(v) <= 1 for v in forest.nodes())

    def test_unknown_score_rejected(self):
        with pytest.raises(KeyError):
            maximum_spanning_branching(build([(0, 1, 0.5)]), score="bogus")


class TestBranchingHelpers:
    def test_roots_sorted(self):
        g = SignedDiGraph()
        g.add_nodes([3, 1, 2])
        forest = maximum_spanning_branching(g)
        assert branching_roots(forest) == [1, 2, 3]
