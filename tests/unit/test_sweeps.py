"""Unit tests for the generic sweep harness."""

import pytest

from repro.detectors import RIDTreeDetector
from repro.errors import ConfigError
from repro.experiments.config import WorkloadConfig
from repro.experiments.sweeps import (
    render_oracle_k,
    render_sweep,
    run_oracle_k_ablation,
    run_theta_sweep,
    sweep_workload_parameter,
)


BASE = WorkloadConfig(dataset="epinions", scale=0.002, seed=3)


class TestSweepHarness:
    def test_values_echoed_in_order(self):
        points = sweep_workload_parameter(
            "alpha", (1.0, 3.0), lambda: RIDTreeDetector(), base_config=BASE
        )
        assert [p.value for p in points] == [1.0, 3.0]

    def test_alpha_sweep_changes_infection(self):
        points = sweep_workload_parameter(
            "alpha", (1.0, 5.0), lambda: RIDTreeDetector(), base_config=BASE
        )
        assert points[1].infected >= points[0].infected

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            sweep_workload_parameter(
                "gamma", (1,), lambda: RIDTreeDetector(), base_config=BASE
            )

    def test_identity_only_detector_has_no_state_accuracy(self):
        points = sweep_workload_parameter(
            "alpha", (3.0,), lambda: RIDTreeDetector(), base_config=BASE
        )
        assert points[0].state_accuracy is None

    def test_render(self):
        points = sweep_workload_parameter(
            "alpha", (3.0,), lambda: RIDTreeDetector(), base_config=BASE
        )
        assert "Sweep over alpha" in render_sweep("alpha", points)


class TestOracleK:
    def test_two_modes_reported(self):
        comparisons = run_oracle_k_ablation(scale=0.002, seed=3)
        assert len(comparisons) == 2
        assert comparisons[0].mode.startswith("beta")
        assert comparisons[1].mode.startswith("oracle")

    def test_render(self):
        comparisons = run_oracle_k_ablation(scale=0.002, seed=3)
        assert "Ablation X9" in render_oracle_k(comparisons)


class TestThetaSweep:
    def test_thetas_echoed(self):
        points = run_theta_sweep(thetas=(0.0, 1.0), scale=0.002, seed=3)
        assert [p.value for p in points] == [0.0, 1.0]
