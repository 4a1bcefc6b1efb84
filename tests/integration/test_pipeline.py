"""Integration tests: simulate-then-detect on seeded synthetic worlds."""

import pytest

from repro.detectors import RIDPositiveDetector, RIDTreeConfig, RIDTreeDetector
from repro.core.rid import RID, RIDConfig
from repro.experiments.config import WorkloadConfig
from repro.experiments.workload import build_workload
from repro.metrics.identity import identity_metrics
from repro.metrics.state import state_metrics


@pytest.fixture(scope="module")
def epinions_world():
    """A small but non-trivial Epinions-like workload (cached per module)."""
    return build_workload(WorkloadConfig(dataset="epinions", scale=0.004, seed=11))


@pytest.fixture(scope="module")
def slashdot_world():
    return build_workload(WorkloadConfig(dataset="slashdot", scale=0.006, seed=11))


class TestWorkloadConstruction:
    def test_infected_network_nonempty(self, epinions_world):
        assert epinions_world.infected.number_of_nodes() >= len(epinions_world.seeds)

    def test_seeds_are_infected(self, epinions_world):
        infected_nodes = set(epinions_world.infected.nodes())
        assert set(epinions_world.seeds) <= infected_nodes

    def test_all_infected_states_active(self, epinions_world):
        for node in epinions_world.infected.nodes():
            assert epinions_world.infected.state(node).is_active

    def test_diffusion_is_reversed_social(self, epinions_world):
        social, diffusion = epinions_world.social, epinions_world.diffusion
        count = 0
        for u, v, _ in social.iter_edges():
            assert diffusion.has_edge(v, u)
            count += 1
            if count >= 50:
                break

    def test_workload_deterministic(self):
        config = WorkloadConfig(dataset="epinions", scale=0.003, seed=5)
        a = build_workload(config, trial=0)
        b = build_workload(config, trial=0)
        assert set(a.seeds) == set(b.seeds)
        assert set(a.infected.nodes()) == set(b.infected.nodes())

    def test_trials_vary(self):
        config = WorkloadConfig(dataset="epinions", scale=0.003, seed=5)
        a = build_workload(config, trial=0)
        b = build_workload(config, trial=1)
        assert set(a.seeds) != set(b.seeds)


class TestEndToEndDetection:
    def test_rid_tree_precision_high(self, epinions_world):
        result = RIDTreeDetector().detect(epinions_world.infected)
        metrics = identity_metrics(result.initiators, set(epinions_world.seeds))
        # The paper's guarantee (precision 1.0) holds up to rare
        # source-cycle artifacts; at this scale we demand >= 0.6.
        assert metrics.precision >= 0.6

    def test_rid_finds_at_least_tree_roots(self, epinions_world):
        pruned = RIDTreeDetector(RIDTreeConfig(prune_inconsistent=True))
        tree = pruned.detect(epinions_world.infected)
        rid = RID(RIDConfig(beta=0.1)).detect(epinions_world.infected)
        assert len(rid.initiators) >= len(tree.initiators)

    def test_rid_recall_positive(self, epinions_world):
        result = RID(RIDConfig(beta=0.5)).detect(epinions_world.infected)
        metrics = identity_metrics(result.initiators, set(epinions_world.seeds))
        assert metrics.recall > 0.0

    def test_rid_beta_tradeoff_direction(self, epinions_world):
        low = RID(RIDConfig(beta=0.0)).detect(epinions_world.infected)
        high = RID(RIDConfig(beta=1.0)).detect(epinions_world.infected)
        assert len(low.initiators) >= len(high.initiators)

    def test_rid_infers_states_for_all_detections(self, slashdot_world):
        result = RID(RIDConfig(beta=0.4)).detect(slashdot_world.infected)
        assert set(result.states) == result.initiators
        metrics = state_metrics(result.states, slashdot_world.seeds)
        if metrics.evaluated:
            assert metrics.accuracy >= 0.5

    def test_rid_positive_runs_on_both_datasets(self, epinions_world, slashdot_world):
        for world in (epinions_world, slashdot_world):
            result = RIDPositiveDetector().detect(world.infected)
            assert result.num_detected() >= 1

    def test_detection_deterministic(self, epinions_world):
        a = RID(RIDConfig(beta=0.3)).detect(epinions_world.infected)
        b = RID(RIDConfig(beta=0.3)).detect(epinions_world.infected)
        assert a.initiators == b.initiators
        assert a.states == b.states
