"""Tests for documented model degenerations and parameter limits.

The MFC model is designed to *contain* Independent Cascade: with
``alpha = 1`` (no boost) and flips disabled, its semantics coincide with
sign-propagating IC. These tests pin down that containment plus other
limit behaviours (round truncation, voter laziness).
"""

from statistics import mean

import pytest

from repro.diffusion.ic import ICModel
from repro.diffusion.mfc import MFCModel
from repro.diffusion.voter import SignedVoterModel
from repro.graphs.generators.random_graphs import signed_erdos_renyi
from repro.graphs.signed_digraph import SignedDiGraph
from repro.types import NodeState


class TestMFCDegeneratesToIC:
    def test_same_mean_spread(self):
        graph = signed_erdos_renyi(40, 0.1, positive_probability=0.7, rng=3)
        seeds = {0: NodeState.POSITIVE}
        mfc = MFCModel(alpha=1.0, allow_flips=False)
        ic = ICModel()
        mfc_sizes = [
            mfc.run(graph, seeds, rng=trial).num_infected() for trial in range(150)
        ]
        ic_sizes = [
            ic.run(graph, seeds, rng=trial).num_infected() for trial in range(150)
        ]
        assert mean(mfc_sizes) == pytest.approx(mean(ic_sizes), rel=0.15)

    def test_identical_given_shared_stream(self):
        # Force byte-identical randomness by aligning the models' RNG
        # namespaces (streams are normally decorrelated by model name);
        # with no boost and no flips both consume draws in the same order.
        graph = signed_erdos_renyi(30, 0.15, rng=5)
        seeds = {0: NodeState.POSITIVE}
        mfc = MFCModel(alpha=1.0, allow_flips=False)
        ic = ICModel()
        mfc.name = ic.name = "degeneration-check"  # align RNG namespaces
        for seed in range(10):
            mfc_result = mfc.run(graph, seeds, rng=seed)
            ic_result = ic.run(graph, seeds, rng=seed)
            assert mfc_result.final_states == ic_result.final_states
            assert [
                (e.round, e.source, e.target, e.state) for e in mfc_result.events
            ] == [(e.round, e.source, e.target, e.state) for e in ic_result.events]


class TestRoundTruncation:
    def test_max_rounds_bounds_depth(self):
        g = SignedDiGraph()
        for i in range(10):
            g.add_edge(i, i + 1, 1, 1.0)
        result = MFCModel(alpha=3.0, max_rounds=3).run(
            g, {0: NodeState.POSITIVE}, rng=1
        )
        assert result.rounds == 3
        assert result.num_infected() == 4  # seed + 3 hops

    def test_unbounded_run_reaches_everything(self):
        g = SignedDiGraph()
        for i in range(10):
            g.add_edge(i, i + 1, 1, 1.0)
        result = MFCModel(alpha=3.0).run(g, {0: NodeState.POSITIVE}, rng=1)
        assert result.num_infected() == 11


class TestLazyVoter:
    def test_update_probability_zero_freezes_opinions(self):
        g = SignedDiGraph()
        g.add_edge("u", "v", 1, 1.0)
        result = SignedVoterModel(rounds=5, update_probability=0.0).run(
            g, {"u": NodeState.POSITIVE}, rng=1
        )
        assert "v" not in result.final_states

    def test_partial_update_probability_slows_spread(self):
        g = SignedDiGraph()
        for i in range(6):
            g.add_edge(i, i + 1, 1, 1.0)
        eager = SignedVoterModel(rounds=6, update_probability=1.0).run(
            g, {0: NodeState.POSITIVE}, rng=1
        )
        lazy_sizes = [
            SignedVoterModel(rounds=6, update_probability=0.3)
            .run(g, {0: NodeState.POSITIVE}, rng=trial)
            .num_infected()
            for trial in range(30)
        ]
        assert mean(lazy_sizes) < eager.num_infected()


class TestLikelihoodInconsistentValueReading:
    def test_prose_reading_ignores_broken_paths(self):
        from tests.oracles.exact import node_infection_probability

        g = SignedDiGraph()
        g.add_edge("s", "m", 1, 0.5)
        g.add_edge("m", "t", 1, 0.5)
        g.set_states(
            {
                "s": NodeState.POSITIVE,
                "m": NodeState.NEGATIVE,  # s -> m inconsistent
                "t": NodeState.NEGATIVE,
            }
        )
        equation = node_infection_probability(
            g, "t", {"s": NodeState.POSITIVE}, alpha=3.0, inconsistent_value=0.0
        )
        prose = node_infection_probability(
            g, "t", {"s": NodeState.POSITIVE}, alpha=3.0, inconsistent_value=1.0
        )
        assert equation == 0.0
        # Prose reading: the broken hop contributes factor 1, leaving the
        # consistent m -> t hop: m(-) -> t(-) positive link, g = 1.
        assert prose == pytest.approx(1.0)
