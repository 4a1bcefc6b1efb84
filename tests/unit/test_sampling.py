"""Unit tests for the forest-fire graph sampler."""

import pytest

from repro.errors import ConfigError
from repro.graphs.generators.random_graphs import signed_preferential_attachment
from repro.graphs.sampling import forest_fire_sample
from repro.graphs.signed_digraph import SignedDiGraph
from repro.types import NodeState
from repro.utils.rng import spawn_rng


@pytest.fixture(scope="module")
def big_graph() -> SignedDiGraph:
    return signed_preferential_attachment(200, out_degree=3, rng=5)


class TestForestFireSample:
    def test_target_size_reached(self, big_graph):
        sample = forest_fire_sample(big_graph, 60, rng=1)
        assert sample.number_of_nodes() == 60

    def test_target_capped_at_graph_size(self, big_graph):
        sample = forest_fire_sample(big_graph, 10_000, rng=1)
        assert sample.number_of_nodes() == big_graph.number_of_nodes()

    def test_deterministic(self, big_graph):
        a = forest_fire_sample(big_graph, 40, rng=3)
        b = forest_fire_sample(big_graph, 40, rng=3)
        assert set(a.nodes()) == set(b.nodes())

    def test_preserves_states_and_signs(self, big_graph):
        big_graph.set_state(0, NodeState.POSITIVE)
        sample = forest_fire_sample(big_graph, 80, rng=2)
        if sample.has_node(0):
            assert sample.state(0) is NodeState.POSITIVE
        for u, v, data in sample.iter_edges():
            assert big_graph.sign(u, v) is data.sign

    @pytest.mark.parametrize("kwargs", [
        {"target_nodes": 0},
        {"target_nodes": 5, "forward_probability": 1.0},
        {"target_nodes": 5, "backward_probability": -0.1},
    ])
    def test_invalid_parameters(self, big_graph, kwargs):
        with pytest.raises(ConfigError):
            forest_fire_sample(big_graph, **kwargs)

    def test_heavy_tail_better_preserved_than_node_sampling(self, big_graph):
        # Forest fire should retain hubs much more often than uniform
        # node sampling — check the max in-degree of the samples.
        ff = forest_fire_sample(big_graph, 60, rng=4)
        nodes = sorted(big_graph.nodes(), key=repr)
        ns = big_graph.subgraph(spawn_rng(4, "node-sample").sample(nodes, 60))
        ff_max = max(ff.in_degree(v) for v in ff.nodes())
        ns_max = max(ns.in_degree(v) for v in ns.nodes())
        assert ff_max >= ns_max
