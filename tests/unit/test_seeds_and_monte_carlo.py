"""Unit tests for seed planting and Monte-Carlo helpers."""

import pytest

from repro.diffusion.base import DiffusionModel, DiffusionResult
from repro.diffusion.mfc import MFCModel
from repro.diffusion.monte_carlo import estimate_spread, simulate_batch, simulate_many
from repro.diffusion.seeds import plant_random_initiators
from repro.errors import ConfigError, InvalidSeedError
from repro.graphs.generators.trees import path_graph
from repro.graphs.signed_digraph import SignedDiGraph
from repro.types import NodeState


def ring(n: int = 20) -> SignedDiGraph:
    g = SignedDiGraph()
    for i in range(n):
        g.add_edge(i, (i + 1) % n, 1, 0.5)
    return g


class TestPlantRandomInitiators:
    def test_count_respected(self):
        seeds = plant_random_initiators(ring(), 5, rng=1)
        assert len(seeds) == 5

    def test_theta_split_exact(self):
        seeds = plant_random_initiators(ring(), 10, positive_ratio=0.3, rng=1)
        positives = sum(1 for s in seeds.values() if s is NodeState.POSITIVE)
        assert positives == 3

    def test_theta_one_all_positive(self):
        seeds = plant_random_initiators(ring(), 4, positive_ratio=1.0, rng=1)
        assert all(s is NodeState.POSITIVE for s in seeds.values())

    def test_deterministic(self):
        a = plant_random_initiators(ring(), 6, rng=42)
        b = plant_random_initiators(ring(), 6, rng=42)
        assert a == b

    def test_count_exceeding_network_rejected(self):
        with pytest.raises(InvalidSeedError):
            plant_random_initiators(ring(5), 6, rng=1)

    def test_zero_count_rejected(self):
        with pytest.raises(InvalidSeedError):
            plant_random_initiators(ring(), 0, rng=1)


class TestMonteCarlo:
    def test_simulate_many_count_and_determinism(self):
        model = MFCModel(alpha=2.0)
        seeds = {0: NodeState.POSITIVE}
        runs_a = simulate_many(model, ring(), seeds, trials=5, base_seed=3)
        runs_b = simulate_many(model, ring(), seeds, trials=5, base_seed=3)
        assert len(runs_a) == 5
        assert [r.num_infected() for r in runs_a] == [r.num_infected() for r in runs_b]

    def test_trials_differ_from_each_other(self):
        # alpha = 1 keeps attempts at probability 0.5 (no saturation), so
        # cascade sizes genuinely vary across trials.
        model = MFCModel(alpha=1.0)
        runs = simulate_many(model, ring(), {0: NodeState.POSITIVE}, trials=10, base_seed=3)
        sizes = {r.num_infected() for r in runs}
        assert len(sizes) > 1  # randomness across trials

    def test_estimate_spread_fields(self):
        estimate = estimate_spread(
            MFCModel(alpha=2.0), ring(), {0: NodeState.POSITIVE}, trials=8, base_seed=1
        )
        assert estimate.trials == 8
        assert estimate.mean_infected >= 1.0
        assert 0.0 <= estimate.mean_positive_fraction <= 1.0
        assert 0.0 <= estimate.mean_negative_fraction <= 1.0
        assert estimate.mean_positive_fraction + estimate.mean_negative_fraction == (
            pytest.approx(1.0)
        )
        assert estimate.std_infected >= 0.0

    @pytest.mark.parametrize("trials", [0, -3])
    def test_trials_below_one_rejected(self, trials):
        model = MFCModel(alpha=2.0)
        seeds = {0: NodeState.POSITIVE}
        for run in (estimate_spread, simulate_many, simulate_batch):
            with pytest.raises(ConfigError, match=f"trials must be >= 1, got {trials}"):
                run(model, ring(), seeds, trials)

    def test_certain_path_spread(self):
        path = path_graph(5, sign=1, weight=1.0)
        estimate = estimate_spread(
            MFCModel(alpha=3.0), path, {0: NodeState.POSITIVE}, trials=3
        )
        assert estimate.mean_infected == 5.0
        assert estimate.mean_positive_fraction == 1.0
        assert estimate.mean_negative_fraction == 0.0


class BurnoutModel(DiffusionModel):
    """Stub: every node ends in ``empty_state`` on trials whose index is
    in ``empty_trials``, as recovery-style models can; other trials end
    all-positive."""

    name = "burnout"

    def __init__(self, empty_trials):
        self.empty_trials = set(empty_trials)
        self.calls = 0

    def run(self, diffusion, seeds, rng=None):
        trial = self.calls
        self.calls += 1
        if trial in self.empty_trials:
            state = NodeState.INACTIVE  # empty cascade: nobody active
        else:
            state = NodeState.POSITIVE
        return DiffusionResult(
            seeds=dict(seeds),
            final_states={n: state for n in diffusion.nodes()},
        )


class TestEmptyCascadeConvention:
    def test_empty_trials_excluded_from_positive_fraction(self):
        """Regression: empty cascades used to push 0.0 into the positive
        fractions, biasing the mean downward. Here half the trials are
        empty and every non-empty trial is all-positive, so the mean
        positive fraction must be exactly 1.0 (previously 0.5)."""
        estimate = estimate_spread(
            BurnoutModel(empty_trials=[1, 3]), ring(), {0: NodeState.POSITIVE}, trials=4
        )
        assert estimate.mean_positive_fraction == 1.0
        assert estimate.mean_negative_fraction == 0.0
        assert estimate.trials == 4  # empty trials still counted here

    def test_all_empty_trials_give_zero_fraction(self):
        model = BurnoutModel(empty_trials=range(3))
        estimate = estimate_spread(model, ring(), {0: NodeState.POSITIVE}, trials=3)
        assert estimate.mean_positive_fraction == 0.0
        assert estimate.mean_negative_fraction == 0.0
        assert estimate.mean_infected == 0.0
