"""Randomized cross-validation: CSR kernel == reference simulator.

The kernel's whole contract is *bit*-identity with the reference
dict-of-dict simulators (``tests/oracles/cascades.py``) — same
activation events (order included), same final states (dict insertion
order included), same round count, same RNG consumption — over random
signed graphs × α ∈ {1, 3} × flips on/off × seeds. Any divergence here means the kernel changed model
semantics, not just speed.
"""

import random

import pytest

from repro.diffusion.ic import ICModel
from repro.diffusion.mfc import MFCModel
from repro.graphs.generators.random_graphs import (
    signed_erdos_renyi,
    signed_preferential_attachment,
    signed_watts_strogatz,
)
from repro.types import NodeState
from repro.utils.rng import spawn_rng
from tests.oracles.cascades import ReferenceICModel, ReferenceMFCModel


def random_graphs():
    """A spread of topologies, densities, sign mixes and weight regimes."""
    yield signed_erdos_renyi(
        40, 0.10, positive_probability=0.7, weight_range=(0.0, 0.7), rng=1
    )
    yield signed_erdos_renyi(
        70, 0.05, positive_probability=0.3, weight_range=(0.2, 1.0), rng=2
    )
    yield signed_preferential_attachment(
        60, out_degree=3, positive_probability=0.8, weight_range=(0.0, 0.5), rng=3
    )
    yield signed_watts_strogatz(
        50, k=4, rewire_probability=0.2, positive_probability=0.5, rng=4
    )


def plant_seeds(graph, rng, count=4):
    nodes = sorted(graph.nodes())
    random_source = spawn_rng(rng, "kernel-identity-seeds")
    chosen = random_source.sample(nodes, min(count, len(nodes)))
    return {
        node: NodeState.POSITIVE if i % 2 else NodeState.NEGATIVE
        for i, node in enumerate(chosen)
    }


def assert_identical(fast, slow):
    assert fast.seeds == slow.seeds
    assert fast.events == slow.events
    assert fast.final_states == slow.final_states
    # Insertion order too: downstream JSON encodings walk the dict.
    assert list(fast.final_states) == list(slow.final_states)
    assert fast.rounds == slow.rounds


class TestMFCKernelIdentity:
    @pytest.mark.parametrize("alpha", [1.0, 3.0])
    @pytest.mark.parametrize("allow_flips", [True, False])
    def test_bit_identical_over_random_graphs(self, alpha, allow_flips):
        for graph_index, graph in enumerate(random_graphs()):
            seeds = plant_seeds(graph, graph_index)
            for trial in range(6):
                fast = MFCModel(alpha=alpha, allow_flips=allow_flips).run(
                    graph, seeds, rng=trial
                )
                slow = ReferenceMFCModel(
                    alpha=alpha, allow_flips=allow_flips
                ).run(graph, seeds, rng=trial)
                assert_identical(fast, slow)

    def test_parent_generator_left_in_identical_state(self):
        """Passing a live Random must consume it identically on both paths."""
        graph = signed_erdos_renyi(30, 0.12, rng=9)
        seeds = plant_seeds(graph, 9)
        fast_rng, slow_rng = random.Random(123), random.Random(123)
        fast = MFCModel(alpha=3.0).run(graph, seeds, rng=fast_rng)
        slow = ReferenceMFCModel(alpha=3.0).run(graph, seeds, rng=slow_rng)
        assert_identical(fast, slow)
        assert fast_rng.getstate() == slow_rng.getstate()

    def test_max_rounds_cap_respected_identically(self):
        graph = signed_erdos_renyi(25, 0.2, positive_probability=1.0, rng=5)
        seeds = plant_seeds(graph, 5)
        fast = MFCModel(alpha=3.0, max_rounds=2).run(graph, seeds, rng=0)
        slow = ReferenceMFCModel(alpha=3.0, max_rounds=2).run(graph, seeds, rng=0)
        assert_identical(fast, slow)
        assert fast.rounds <= 2

    def test_mixed_node_types_sort_like_reference(self):
        """repr-sorted visit order must hold for non-integer node ids too."""
        from repro.graphs.signed_digraph import SignedDiGraph

        g = SignedDiGraph()
        g.add_edge("b", 10, 1, 0.6)
        g.add_edge("b", 2, 1, 0.6)
        g.add_edge(10, "a", -1, 0.7)
        g.add_edge(2, "a", 1, 0.7)
        g.add_edge("a", "b", 1, 0.5)
        for trial in range(10):
            fast = MFCModel(alpha=2.0).run(g, {"b": NodeState.POSITIVE}, rng=trial)
            slow = ReferenceMFCModel(alpha=2.0).run(
                g, {"b": NodeState.POSITIVE}, rng=trial
            )
            assert_identical(fast, slow)


class TestICKernelIdentity:
    @pytest.mark.parametrize("propagate_signs", [True, False])
    def test_bit_identical_over_random_graphs(self, propagate_signs):
        for graph_index, graph in enumerate(random_graphs()):
            seeds = plant_seeds(graph, 100 + graph_index)
            for trial in range(6):
                fast = ICModel(propagate_signs=propagate_signs).run(
                    graph, seeds, rng=trial
                )
                slow = ReferenceICModel(propagate_signs=propagate_signs).run(
                    graph, seeds, rng=trial
                )
                assert_identical(fast, slow)

    def test_parent_generator_left_in_identical_state(self):
        graph = signed_preferential_attachment(40, rng=11)
        seeds = plant_seeds(graph, 11)
        fast_rng, slow_rng = random.Random(77), random.Random(77)
        assert_identical(
            ICModel().run(graph, seeds, rng=fast_rng),
            ReferenceICModel().run(graph, seeds, rng=slow_rng),
        )
        assert fast_rng.getstate() == slow_rng.getstate()
