"""Unit tests for the synthetic network generators."""

import pytest

from repro.errors import ConfigError
from repro.graphs.generators.random_graphs import (
    signed_erdos_renyi,
    signed_preferential_attachment,
    signed_watts_strogatz,
)
from repro.graphs.generators.snapshot_like import (
    EPINIONS_PROFILE,
    SLASHDOT_PROFILE,
    generate_epinions_like,
    generate_profiled_network,
    generate_slashdot_like,
)
from repro.graphs.generators.trees import (
    is_arborescence,
    path_graph,
    random_general_tree,
    star_graph,
)
from repro.graphs.stats import positive_fraction, reciprocity


class TestErdosRenyi:
    def test_node_count(self):
        g = signed_erdos_renyi(30, 0.1, rng=1)
        assert g.number_of_nodes() == 30

    def test_edge_probability_zero(self):
        assert signed_erdos_renyi(10, 0.0, rng=1).number_of_edges() == 0

    def test_edge_probability_one(self):
        g = signed_erdos_renyi(6, 1.0, rng=1)
        assert g.number_of_edges() == 30  # all ordered pairs

    def test_positive_probability_respected(self):
        g = signed_erdos_renyi(40, 0.3, positive_probability=1.0, rng=1)
        assert positive_fraction(g) == 1.0

    def test_deterministic(self):
        a = signed_erdos_renyi(20, 0.2, rng=9)
        b = signed_erdos_renyi(20, 0.2, rng=9)
        assert {(u, v) for u, v, _ in a.iter_edges()} == {
            (u, v) for u, v, _ in b.iter_edges()
        }

    def test_invalid_n_rejected(self):
        with pytest.raises(ConfigError):
            signed_erdos_renyi(-1, 0.5)


class TestPreferentialAttachment:
    def test_no_self_loops(self):
        g = signed_preferential_attachment(100, out_degree=3, rng=2)
        assert all(u != v for u, v, _ in g.iter_edges())

    def test_edges_point_to_earlier_nodes(self):
        g = signed_preferential_attachment(50, out_degree=2, rng=2)
        assert all(v < u for u, v, _ in g.iter_edges())

    def test_heavy_tail_exists(self):
        g = signed_preferential_attachment(300, out_degree=3, rng=2)
        max_in = max(g.in_degree(v) for v in g.nodes())
        assert max_in >= 10  # hubs form

    def test_out_degree_validation(self):
        with pytest.raises(ConfigError):
            signed_preferential_attachment(10, out_degree=0)


class TestWattsStrogatz:
    def test_no_rewiring_gives_ring(self):
        g = signed_watts_strogatz(10, k=2, rewire_probability=0.0, rng=3)
        assert g.has_edge(0, 1) and g.has_edge(0, 2)
        assert g.number_of_edges() == 20

    def test_small_graphs(self):
        assert signed_watts_strogatz(1, k=2, rng=1).number_of_edges() == 0
        assert signed_watts_strogatz(0, k=2, rng=1).number_of_nodes() == 0


class TestTrees:
    def test_general_tree_fanout_bounded(self):
        tree = random_general_tree(60, max_children=4, rng=7)
        assert is_arborescence(tree)
        assert all(tree.out_degree(v) <= 4 for v in tree.nodes())

    def test_path_graph(self):
        p = path_graph(5)
        assert p.number_of_edges() == 4
        assert is_arborescence(p)

    def test_star_graph_directions(self):
        outward = star_graph(4, outward=True)
        assert outward.out_degree(0) == 4
        inward = star_graph(4, outward=False)
        assert inward.in_degree(0) == 4

    def test_is_arborescence_rejects_cycle(self):
        g = path_graph(3)
        g.add_edge(2, 0, 1, 1.0)
        assert not is_arborescence(g)

    def test_empty_and_singleton(self):
        assert random_general_tree(0).number_of_nodes() == 0
        assert is_arborescence(random_general_tree(1))


class TestProfiledGenerators:
    def test_epinions_like_scale(self):
        g = generate_epinions_like(scale=0.005, rng=1)
        expected_nodes = int(round(EPINIONS_PROFILE.num_nodes * 0.005))
        assert g.number_of_nodes() == expected_nodes
        expected_edges = int(round(EPINIONS_PROFILE.num_edges * 0.005))
        assert abs(g.number_of_edges() - expected_edges) / expected_edges < 0.05

    def test_slashdot_like_reciprocity_higher_than_epinions(self):
        slash = generate_slashdot_like(scale=0.005, rng=1)
        epin = generate_epinions_like(scale=0.005, rng=1)
        assert reciprocity(slash) > reciprocity(epin)

    def test_positive_fraction_in_ballpark(self):
        g = generate_slashdot_like(scale=0.01, rng=2)
        assert abs(positive_fraction(g) - SLASHDOT_PROFILE.positive_fraction) < 0.15

    def test_deterministic(self):
        a = generate_epinions_like(scale=0.003, rng=11)
        b = generate_epinions_like(scale=0.003, rng=11)
        assert {(u, v) for u, v, _ in a.iter_edges()} == {
            (u, v) for u, v, _ in b.iter_edges()
        }

    def test_invalid_scale_rejected(self):
        with pytest.raises(ConfigError):
            generate_profiled_network(EPINIONS_PROFILE, scale=0.0)

    def test_no_self_loops(self):
        g = generate_epinions_like(scale=0.003, rng=3)
        assert all(u != v for u, v, _ in g.iter_edges())

    def test_wiki_elec_profile(self):
        from repro.graphs.generators.snapshot_like import (
            WIKI_ELEC_PROFILE,
            generate_wiki_elec_like,
        )

        g = generate_wiki_elec_like(scale=0.05, rng=2)
        assert g.number_of_nodes() == int(round(WIKI_ELEC_PROFILE.num_nodes * 0.05))
        # Votes are one-way: reciprocity far below Slashdot's.
        assert reciprocity(g) < 0.3

    def test_wiki_elec_workload_end_to_end(self):
        from repro.experiments.config import WorkloadConfig
        from repro.experiments.workload import build_workload

        workload = build_workload(
            WorkloadConfig(dataset="wiki-elec", scale=0.03, seed=3)
        )
        assert workload.infected.number_of_nodes() >= len(workload.seeds)
