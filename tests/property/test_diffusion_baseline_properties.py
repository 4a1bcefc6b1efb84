"""Property-based tests shared by the baseline diffusion models."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.diffusion.ic import ICModel
from repro.diffusion.pic import PICModel
from repro.diffusion.sir import SIRModel
from repro.diffusion.voter import SignedVoterModel
from repro.graphs.signed_digraph import SignedDiGraph
from repro.types import NodeState
from tests.property.reachability import reachable_from

MODELS = [
    ICModel(),
    PICModel(),
    SIRModel(recovery_probability=0.5),
    SignedVoterModel(rounds=5),
]


@st.composite
def worlds(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    graph = SignedDiGraph()
    graph.add_nodes(range(n))
    for _ in range(draw(st.integers(min_value=0, max_value=25))):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u != v:
            graph.add_edge(
                u,
                v,
                draw(st.sampled_from([-1, 1])),
                draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False)),
            )
    seed_node = draw(st.integers(min_value=0, max_value=n - 1))
    state = draw(st.sampled_from([NodeState.POSITIVE, NodeState.NEGATIVE]))
    rng_seed = draw(st.integers(min_value=0, max_value=2**31))
    return graph, {seed_node: state}, rng_seed


class TestSharedInvariants:
    @given(worlds(), st.sampled_from(range(len(MODELS))))
    @settings(max_examples=80, deadline=None)
    def test_final_states_are_opinions(self, world, model_index):
        graph, seeds, rng_seed = world
        result = MODELS[model_index].run(graph, seeds, rng=rng_seed)
        assert all(state.is_active for state in result.final_states.values())

    @given(worlds(), st.sampled_from(range(len(MODELS))))
    @settings(max_examples=80, deadline=None)
    def test_seeds_always_infected(self, world, model_index):
        graph, seeds, rng_seed = world
        result = MODELS[model_index].run(graph, seeds, rng=rng_seed)
        for node in seeds:
            assert result.final_states[node].is_active

    @given(worlds(), st.sampled_from(range(len(MODELS))))
    @settings(max_examples=80, deadline=None)
    def test_infection_respects_reachability(self, world, model_index):
        graph, seeds, rng_seed = world
        result = MODELS[model_index].run(graph, seeds, rng=rng_seed)
        reachable = set()
        for node in seeds:
            reachable |= reachable_from(graph, node)
        assert set(result.infected_nodes()) <= reachable

    @given(worlds(), st.sampled_from(range(len(MODELS))))
    @settings(max_examples=60, deadline=None)
    def test_determinism(self, world, model_index):
        graph, seeds, rng_seed = world
        model = MODELS[model_index]
        a = model.run(graph, seeds, rng=rng_seed)
        b = model.run(graph, seeds, rng=rng_seed)
        assert a.final_states == b.final_states

    @given(worlds())
    @settings(max_examples=60, deadline=None)
    def test_ic_and_pic_never_flip(self, world):
        graph, seeds, rng_seed = world
        for model in (ICModel(), PICModel()):
            result = model.run(graph, seeds, rng=rng_seed)
            assert not any(event.was_flip for event in result.events)
            # One activation event per infected node (incl. the seed).
            assert len(result.events) == len(result.final_states)
