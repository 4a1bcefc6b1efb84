"""Unit tests for component detection and cascade-forest extraction."""

import pytest

from repro.core.arborescence import maximum_spanning_branching, split_branching_into_trees
from repro.core.components import infected_components, weakly_connected_components
from repro.core.rid import RID, RIDConfig
from repro.errors import EmptyInfectionError
from repro.graphs.generators.trees import is_arborescence
from repro.graphs.signed_digraph import SignedDiGraph
from repro.types import NodeState


def forest_of(infected, prune_inconsistent=True):
    """The snapshot's cascade forest through RID's front half."""
    return RID(RIDConfig(prune_inconsistent=prune_inconsistent)).forest(infected)


def two_component_graph() -> SignedDiGraph:
    g = SignedDiGraph()
    g.add_edge("a", "b", 1, 0.5)
    g.add_edge("b", "c", 1, 0.4)
    g.add_edge("x", "y", -1, 0.3)
    for node in g.nodes():
        g.set_state(node, NodeState.POSITIVE)
    # Make the negative link consistent: x(+) -> y must be NEGATIVE.
    g.set_state("y", NodeState.NEGATIVE)
    return g


class TestWeaklyConnectedComponents:
    def test_counts_components(self):
        comps = weakly_connected_components(two_component_graph())
        assert len(comps) == 2
        assert {frozenset(c) for c in comps} == {
            frozenset({"a", "b", "c"}),
            frozenset({"x", "y"}),
        }

    def test_direction_ignored(self):
        g = SignedDiGraph()
        g.add_edge("a", "b", 1, 0.5)
        g.add_edge("c", "b", 1, 0.5)  # b has two in-edges, no out
        comps = weakly_connected_components(g)
        assert len(comps) == 1

    def test_isolated_nodes_are_singletons(self):
        g = SignedDiGraph()
        g.add_nodes(["p", "q"])
        assert len(weakly_connected_components(g)) == 2

    def test_empty_graph(self):
        assert weakly_connected_components(SignedDiGraph()) == []

    def test_infected_components_preserve_states(self):
        comps = infected_components(two_component_graph())
        by_nodes = {frozenset(c.nodes()): c for c in comps}
        small = by_nodes[frozenset({"x", "y"})]
        assert small.state("y") is NodeState.NEGATIVE


class TestSplitBranching:
    def test_splits_by_roots(self):
        branching = maximum_spanning_branching(two_component_graph())
        trees = split_branching_into_trees(branching)
        assert len(trees) == 2
        assert all(is_arborescence(t) for t in trees)

    def test_covers_all_nodes_exactly_once(self):
        branching = maximum_spanning_branching(two_component_graph())
        trees = split_branching_into_trees(branching)
        all_nodes = [n for t in trees for n in t.nodes()]
        assert sorted(all_nodes) == sorted(branching.nodes())


class TestExtractCascadeForest:
    """``RID.forest``, the one cascade-forest extractor."""

    def test_empty_infection_rejected(self):
        with pytest.raises(EmptyInfectionError):
            forest_of(SignedDiGraph())

    def test_trees_are_arborescences(self):
        trees = forest_of(two_component_graph())
        assert all(is_arborescence(t) for t in trees)

    def test_total_coverage(self):
        g = two_component_graph()
        trees = forest_of(g)
        assert sum(t.number_of_nodes() for t in trees) == g.number_of_nodes()

    def test_pruning_drops_inconsistent_links(self):
        g = SignedDiGraph()
        g.add_edge("a", "b", 1, 0.9)  # a(+) -> b(-) positive: INCONSISTENT
        g.set_states({"a": NodeState.POSITIVE, "b": NodeState.NEGATIVE})
        pruned_trees = forest_of(g, prune_inconsistent=True)
        assert len(pruned_trees) == 2  # split into two singletons
        unpruned_trees = forest_of(g, prune_inconsistent=False)
        assert len(unpruned_trees) == 1

    def test_consistent_links_survive_pruning(self):
        g = SignedDiGraph()
        g.add_edge("a", "b", -1, 0.9)  # a(+) -> b(-) negative: consistent
        g.set_states({"a": NodeState.POSITIVE, "b": NodeState.NEGATIVE})
        trees = forest_of(g, prune_inconsistent=True)
        assert len(trees) == 1
        assert trees[0].has_edge("a", "b")

    def test_likelihood_maximal_parent_chosen(self):
        g = SignedDiGraph()
        g.add_edge("a", "c", 1, 0.2)
        g.add_edge("b", "c", 1, 0.7)
        g.add_edge("a", "b", 1, 0.6)
        for node in g.nodes():
            g.set_state(node, NodeState.POSITIVE)
        (tree,) = forest_of(g)
        assert tree.has_edge("b", "c")
        assert not tree.has_edge("a", "c")
