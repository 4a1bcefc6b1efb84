"""Property-based end-to-end detection invariants.

Random MFC worlds → RID and baselines; the invariants below must hold on
every snapshot regardless of topology, weights or seeds.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detectors import RIDPositiveDetector, RIDTreeDetector
from repro.core.rid import RID, RIDConfig
from repro.diffusion.mfc import MFCModel
from repro.graphs.signed_digraph import SignedDiGraph
from repro.types import NodeState
from tests.property.reachability import reachable_from


@st.composite
def infected_worlds(draw):
    """Simulate a small MFC world; returns (diffusion, seeds, infected)."""
    n = draw(st.integers(min_value=2, max_value=16))
    graph = SignedDiGraph()
    graph.add_nodes(range(n))
    for _ in range(draw(st.integers(min_value=1, max_value=40))):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u != v:
            graph.add_edge(
                u,
                v,
                draw(st.sampled_from([-1, 1])),
                draw(st.floats(min_value=0.05, max_value=1.0, allow_nan=False)),
            )
    num_seeds = draw(st.integers(min_value=1, max_value=min(3, n)))
    seed_nodes = draw(
        st.lists(
            st.integers(min_value=0, max_value=n - 1),
            min_size=num_seeds,
            max_size=num_seeds,
            unique=True,
        )
    )
    seeds = {
        node: draw(st.sampled_from([NodeState.POSITIVE, NodeState.NEGATIVE]))
        for node in seed_nodes
    }
    alpha = draw(st.floats(min_value=1.0, max_value=4.0, allow_nan=False))
    rng_seed = draw(st.integers(min_value=0, max_value=2**31))
    cascade = MFCModel(alpha=alpha).run(graph, seeds, rng=rng_seed)
    return graph, seeds, cascade.infected_network(graph)


class TestRIDInvariants:
    @given(infected_worlds(), st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_detections_are_infected_nodes(self, world, beta):
        _, _, infected = world
        result = RID(RIDConfig(beta=beta)).detect(infected)
        assert result.initiators <= set(infected.nodes())

    @given(infected_worlds(), st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_states_match_observed_snapshot(self, world, beta):
        _, _, infected = world
        result = RID(RIDConfig(beta=beta)).detect(infected)
        for node, state in result.states.items():
            assert infected.state(node) is state

    @given(infected_worlds())
    @settings(max_examples=50, deadline=None)
    def test_at_least_one_initiator_per_tree(self, world):
        _, _, infected = world
        result = RID(RIDConfig(beta=1.0)).detect(infected)
        assert len(result.initiators) >= len(result.trees)

    @given(infected_worlds())
    @settings(max_examples=40, deadline=None)
    def test_beta_zero_detects_superset_count(self, world):
        _, _, infected = world
        low = RID(RIDConfig(beta=0.0)).detect(infected)
        high = RID(RIDConfig(beta=1.0)).detect(infected)
        assert len(low.initiators) >= len(high.initiators)

    @given(infected_worlds())
    @settings(max_examples=40, deadline=None)
    def test_trees_partition_infected_nodes(self, world):
        _, _, infected = world
        result = RID(RIDConfig(beta=0.5)).detect(infected)
        covered = sorted(
            node for tree in result.trees for node in tree.nodes()
        )
        assert covered == sorted(infected.nodes())


class TestBaselineInvariants:
    @given(infected_worlds())
    @settings(max_examples=50, deadline=None)
    def test_tree_roots_have_no_infected_in_links(self, world):
        _, _, infected = world
        result = RIDTreeDetector().detect(infected)
        for root in result.initiators:
            in_neighbors = set(infected.predecessors(root))
            # Roots either have no infected in-neighbours at all, or sit
            # in a source cycle (every in-neighbour reachable FROM the
            # root through the infected graph) — the documented artifact.
            if in_neighbors:
                assert in_neighbors <= reachable_from(infected, root)

    @given(infected_worlds())
    @settings(max_examples=50, deadline=None)
    def test_positive_detects_superset_of_positive_only_roots(self, world):
        _, _, infected = world
        result = RIDPositiveDetector().detect(infected)
        assert result.initiators <= set(infected.nodes())
        assert len(result.initiators) >= 1 or infected.number_of_nodes() == 0
