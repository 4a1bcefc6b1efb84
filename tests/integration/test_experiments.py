"""Integration tests for the experiment harness (tiny scales)."""

import json

import pytest

from repro.experiments import ablations, fig2, fig4, fig5, fig6, lemma31, table2
from repro.experiments.cli import build_parser, main as cli_main
from repro.experiments.config import WorkloadConfig
from repro.experiments.reporting import (
    format_paper_vs_measured,
    format_series,
    format_table,
    save_json,
)
from repro.experiments.runner import run_detection_trials
from repro.detectors import RIDTreeDetector
from repro.errors import ConfigError


class TestConfigValidation:
    def test_valid_config(self):
        WorkloadConfig().validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dataset": "unknown"},
            {"scale": 0},
            {"positive_ratio": 1.5},
            {"alpha": 0.1},
            {"num_initiators": 0},
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ConfigError):
            WorkloadConfig(**kwargs).validate()

    def test_initiator_scaling_default(self):
        # Paper-proportional above the floor, floored at 40 below it.
        assert WorkloadConfig(scale=0.1).resolved_num_initiators() == 100
        assert WorkloadConfig(scale=0.01).resolved_num_initiators() == 40
        assert WorkloadConfig(num_initiators=33).resolved_num_initiators() == 33


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [(1, 2.5), ("x", None)], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "2.500" in text
        assert "-" in lines[-1]

    def test_format_series(self):
        text = format_series("s", [0.1, 0.2], [1, 2], x_label="beta", y_label="n")
        assert "beta -> n" in text
        assert "0.100:1" in text

    def test_paper_vs_measured(self):
        row = format_paper_vs_measured("P", 1.0, 0.87, note="epinions")
        assert "paper=1.000" in row and "measured=0.870" in row

    def test_save_json(self, tmp_path):
        path = tmp_path / "out" / "result.json"
        save_json({"x": 1}, path)
        assert json.loads(path.read_text()) == {"x": 1}


class TestRunner:
    def test_run_detection_trials_aggregates(self):
        config = WorkloadConfig(dataset="epinions", scale=0.002, seed=3)
        results = run_detection_trials(
            config, {"tree": lambda: RIDTreeDetector()}, trials=2
        )
        agg = results["tree"]
        assert agg.trials == 2
        assert 0.0 <= agg.precision <= 1.0
        assert agg.accuracy is None  # identity-only baseline


class TestExperimentModules:
    def test_table2_rows(self):
        rows = table2.run(scale=0.002, seed=3)
        assert {r.network for r in rows} == {"epinions", "slashdot"}
        for row in rows:
            assert row.measured_nodes > 0
            assert abs(row.measured_links - row.paper_links) / row.paper_links < 0.1
        text = table2.render(rows, scale=0.002)
        assert "epinions" in text

    def test_fig2_contrast(self):
        result = fig2.run(trials=300, seed=3)
        # MFC's boosted trusted link dominates; IC cannot flip.
        assert result.simultaneous_mfc_positive > result.simultaneous_ic_positive
        assert result.sequential_mfc_flipped > 0.9
        assert result.sequential_ic_flipped == 0.0

    def test_fig4_runs_and_orders_baselines(self):
        result = fig4.run(scale=0.003, trials=1, seed=3, datasets=("epinions",))
        scores = result.per_network["epinions"]
        assert set(scores) == {"rid(0.09)", "rid(0.1)", "rid-tree", "rid-positive"}
        assert scores["rid-tree"].precision >= 0.5
        assert fig4.render(result)

    def test_fig5_beta_monotonicity(self):
        result = fig5.run(
            scale=0.003, trials=1, seed=3, betas=(0.0, 0.5, 1.0), datasets=("epinions",)
        )
        series = result.per_network["epinions"]
        detected = [agg.num_detected for agg in series]
        assert detected[0] >= detected[-1]
        assert fig5.render(result)

    def test_fig6_state_metrics_present(self):
        result = fig6.run(
            scale=0.003, trials=1, seed=3, betas=(0.2, 1.0), datasets=("slashdot",)
        )
        for agg in result.per_network["slashdot"]:
            assert agg.accuracy is not None
            assert agg.mae is not None
        assert fig6.render(result)

    def test_lemma31_equivalence_holds(self):
        checks = lemma31.run(instances=4, num_elements=8, num_subsets=5, seed=3)
        assert all(c.equivalent for c in checks)
        assert all(c.roundtrip_feasible for c in checks)
        assert all(c.greedy_size >= c.cover_optimum for c in checks)
        assert lemma31.render(checks)

    def test_alpha_ablation_monotone_spread(self):
        points = ablations.run_alpha_sweep(
            alphas=(1.0, 3.0), scale=0.003, trials=2, seed=3
        )
        assert points[0].spread.mean_infected <= points[1].spread.mean_infected
        assert ablations.render_alpha_sweep(points)

    def test_dp_scaling_ablation(self):
        points = ablations.run_dp_scaling(sizes=(5, 20), k=2, seed=3)
        assert points[0].binary_size >= points[0].tree_size
        assert ablations.render_dp_scaling(points)


class TestCLI:
    def test_parser_accepts_artefacts(self):
        parser = build_parser()
        args = parser.parse_args(["table2", "--scale", "0.002"])
        assert args.artefact == "table2"
        assert args.scale == 0.002

    def test_cli_table2_end_to_end(self, capsys):
        assert cli_main(["table2", "--scale", "0.002", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "Table II" in out

    def test_cli_lemma31(self, capsys):
        assert cli_main(["lemma31", "--seed", "3"]) == 0
        assert "Lemma 3.1" in capsys.readouterr().out

    def test_cli_diffusion_analysis(self, capsys):
        assert cli_main(["diffusion", "--scale", "0.002", "--trials", "1", "--seed", "3"]) == 0
        assert "Diffusion analysis" in capsys.readouterr().out

    @pytest.mark.parametrize("detector", [None, "jordan-center"])
    def test_cli_detect_stream(self, capsys, detector):
        argv = ["detect-stream", "--deltas", "3", "--seed", "3"]
        if detector is not None:
            argv += ["--detector", detector]
        assert cli_main(argv) == 0
        out = capsys.readouterr().out
        assert "delta   2:" in out
        # Only RID's incremental path has an artifact cache to report.
        assert ("artifact cache:" in out) == (detector is None)

    def test_cli_rejects_unknown_artefact(self):
        with pytest.raises(SystemExit):
            cli_main(["not-an-artefact"])
