"""Unit tests for graph transforms (Definition 2 and friends)."""

import pytest

from repro.graphs.signed_digraph import SignedDiGraph
from repro.graphs.transforms import positive_subgraph, to_diffusion_network
from repro.types import NodeState, Sign


class TestToDiffusionNetwork:
    def test_reverses_every_edge(self, triangle):
        diffusion = to_diffusion_network(triangle)
        assert diffusion.has_edge("b", "a")
        assert diffusion.has_edge("c", "b")
        assert diffusion.has_edge("a", "c")
        assert diffusion.number_of_edges() == 3

    def test_signs_and_weights_carry_over(self, triangle):
        # Definition 2: s_D(v, u) = s(u, v), w_D(v, u) = w(u, v).
        diffusion = to_diffusion_network(triangle)
        assert diffusion.sign("b", "a") is triangle.sign("a", "b")
        assert diffusion.weight("b", "a") == triangle.weight("a", "b")
        assert diffusion.sign("c", "b") is Sign.NEGATIVE

    def test_node_set_preserved(self, triangle):
        diffusion = to_diffusion_network(triangle)
        assert sorted(diffusion.nodes()) == sorted(triangle.nodes())

    def test_original_untouched(self, triangle):
        to_diffusion_network(triangle)
        assert triangle.has_edge("a", "b")


class TestSignSubgraphs:
    def test_positive_subgraph_keeps_all_nodes(self, triangle):
        sub = positive_subgraph(triangle)
        assert sub.number_of_nodes() == 3
        assert sub.number_of_edges() == 2
        assert not sub.has_edge("b", "c")

    def test_states_preserved(self, triangle):
        triangle.set_state("a", NodeState.POSITIVE)
        assert positive_subgraph(triangle).state("a") is NodeState.POSITIVE

