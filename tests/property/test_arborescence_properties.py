"""Property-based tests for the Edmonds branching extractor.

The key property — exact optimality — is certified against a brute-force
enumeration of all branchings on small random graphs, for both the
minimum-roots criterion and the likelihood maximisation among
minimum-root branchings.
"""

import itertools
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.arborescence import maximum_spanning_branching, split_branching_into_trees
from repro.graphs.generators.trees import is_arborescence
from repro.graphs.signed_digraph import SignedDiGraph


@st.composite
def small_digraphs(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    graph = SignedDiGraph()
    graph.add_nodes(range(n))
    for u in range(n):
        for v in range(n):
            if u != v and draw(st.booleans()):
                weight = draw(
                    st.floats(min_value=0.01, max_value=1.0, allow_nan=False)
                )
                graph.add_edge(u, v, draw(st.sampled_from([-1, 1])), weight)
    return graph


def brute_force_best_branching(graph):
    """(min_roots, max_log_score) over all valid branchings."""
    nodes = graph.nodes()
    choices = []
    for v in nodes:
        in_edges = [(u, v) for u, _, _ in graph.in_edges(v)]
        choices.append(in_edges + [None])
    best_key = None
    for combo in itertools.product(*choices):
        edges = [e for e in combo if e]
        parent = {v: u for (u, v) in edges}
        acyclic = True
        for start in nodes:
            seen = set()
            node = start
            while node in parent:
                if node in seen:
                    acyclic = False
                    break
                seen.add(node)
                node = parent[node]
            if not acyclic:
                break
        if not acyclic:
            continue
        roots = len(nodes) - len(edges)
        score = sum(math.log(max(graph.weight(u, v), 1e-12)) for (u, v) in edges)
        key = (-roots, score)
        if best_key is None or key > best_key:
            best_key = key
    return best_key


class TestBranchingProperties:
    @given(small_digraphs())
    @settings(max_examples=60, deadline=None)
    def test_in_degree_at_most_one(self, graph):
        forest = maximum_spanning_branching(graph)
        assert all(forest.in_degree(v) <= 1 for v in forest.nodes())

    @given(small_digraphs())
    @settings(max_examples=60, deadline=None)
    def test_splits_into_arborescences_covering_all_nodes(self, graph):
        forest = maximum_spanning_branching(graph)
        trees = split_branching_into_trees(forest)
        assert sum(t.number_of_nodes() for t in trees) == graph.number_of_nodes()
        assert all(is_arborescence(t) for t in trees)

    @given(small_digraphs())
    @settings(max_examples=60, deadline=None)
    def test_edges_come_from_input(self, graph):
        forest = maximum_spanning_branching(graph)
        for u, v, data in forest.iter_edges():
            assert graph.has_edge(u, v)
            assert graph.weight(u, v) == data.weight
            assert graph.sign(u, v) is data.sign

    @given(small_digraphs())
    @settings(max_examples=50, deadline=None)
    def test_exact_optimality_vs_brute_force(self, graph):
        forest = maximum_spanning_branching(graph)
        edges = [(u, v) for u, v, _ in forest.iter_edges()]
        roots = graph.number_of_nodes() - len(edges)
        score = sum(math.log(max(graph.weight(u, v), 1e-12)) for (u, v) in edges)
        best = brute_force_best_branching(graph)
        assert best is not None
        assert -roots == best[0]
        assert score == (
            best[1]
        ) or abs(score - best[1]) < 1e-9
