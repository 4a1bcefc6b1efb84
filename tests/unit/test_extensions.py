"""Unit tests for the single-source centrality classics and the
Shah–Zaman rumor-centrality score."""

import math

import pytest

from repro.errors import NotATreeError
from repro.detectors import (
    DistanceCenterDetector,
    JordanCenterDetector,
    RumorCentralityDetector,
    rumor_centralities,
    undirected_distances,
)
from repro.detectors.centrality import bfs_tree
from repro.graphs.generators.trees import path_graph, star_graph
from repro.graphs.signed_digraph import SignedDiGraph
from repro.types import NodeState


class TestRumorCentralities:
    def test_star_center_is_hub(self):
        star = star_graph(6)
        scores = rumor_centralities(star)
        assert max(scores, key=scores.get) == 0

    def test_path_center_is_middle(self):
        path = path_graph(5)
        scores = rumor_centralities(path)
        assert max(scores, key=scores.get) == 2

    def test_brute_force_match_on_small_tree(self):
        # R(v) = n! * prod 1/t_u^v; verify message passing against direct
        # computation on a 4-node path.
        path = path_graph(4)
        scores = rumor_centralities(path)

        def direct(root):
            # Subtree sizes when rooted at `root` (undirected path 0-1-2-3).
            adj = {0: [1], 1: [0, 2], 2: [1, 3], 3: [2]}
            sizes = {}

            def dfs(u, parent):
                size = 1
                for w in adj[u]:
                    if w != parent:
                        size += dfs(w, u)
                sizes[u] = size
                return size

            dfs(root, None)
            value = math.lgamma(5)  # log 4!
            for u in range(4):
                value -= math.log(sizes[u])
            return value

        for node in range(4):
            assert scores[node] == pytest.approx(direct(node))

    def test_two_node_symmetric(self):
        scores = rumor_centralities(path_graph(2))
        assert scores[0] == pytest.approx(scores[1])

    def test_rejects_non_tree(self):
        g = path_graph(3)
        g.add_edge(2, 0, 1, 1.0)
        with pytest.raises(NotATreeError):
            rumor_centralities(g)

    def test_rejects_disconnected(self):
        g = SignedDiGraph()
        g.add_edge(0, 1, 1, 1.0)
        g.add_nodes([5])
        with pytest.raises(NotATreeError):
            rumor_centralities(g)

    def test_rejects_empty(self):
        with pytest.raises(NotATreeError):
            rumor_centralities(SignedDiGraph())


class TestBfsTree:
    def test_spans_component(self):
        g = SignedDiGraph()
        g.add_edge("a", "b", 1, 0.5)
        g.add_edge("b", "c", -1, 0.5)
        g.add_edge("c", "a", 1, 0.5)
        tree = bfs_tree(g, "a")
        assert tree.number_of_nodes() == 3
        assert tree.number_of_edges() == 2
        assert tree.in_degree("a") == 0


class TestUndirectedDistances:
    def test_hop_counts(self):
        path = path_graph(4)
        distances = undirected_distances(path, 0)
        assert distances == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_direction_ignored(self):
        g = SignedDiGraph()
        g.add_edge("b", "a", 1, 0.5)  # edge points INTO a
        assert undirected_distances(g, "a") == {"a": 0, "b": 1}


def infected_path(n: int) -> SignedDiGraph:
    g = path_graph(n)
    for node in g.nodes():
        g.set_state(node, NodeState.POSITIVE)
    return g


class TestCentralityDetectors:
    def test_jordan_center_of_path(self):
        result = JordanCenterDetector().detect(infected_path(5))
        assert result.initiators == {2}

    def test_distance_center_of_path(self):
        result = DistanceCenterDetector().detect(infected_path(5))
        assert result.initiators == {2}

    def test_rumor_center_of_path(self):
        result = RumorCentralityDetector().detect(infected_path(5))
        assert result.initiators == {2}

    def test_one_detection_per_component(self):
        g = infected_path(3)
        h = infected_path(3)
        merged = SignedDiGraph()
        for u, v, d in g.iter_edges():
            merged.add_edge(f"g{u}", f"g{v}", int(d.sign), d.weight)
        for u, v, d in h.iter_edges():
            merged.add_edge(f"h{u}", f"h{v}", int(d.sign), d.weight)
        for node in merged.nodes():
            merged.set_state(node, NodeState.POSITIVE)
        result = JordanCenterDetector().detect(merged)
        assert len(result.initiators) == 2

    def test_singleton_component(self):
        g = SignedDiGraph()
        g.add_node("only", NodeState.POSITIVE)
        result = RumorCentralityDetector().detect(g)
        assert result.initiators == {"only"}

    def test_no_states_inferred(self):
        result = JordanCenterDetector().detect(infected_path(3))
        assert result.states == {}
