"""Tests for the stable facade (:mod:`repro.api`) and compatibility shims."""

import inspect
import warnings

import pytest

import repro
from repro import api
from repro.core.rid import RID, RIDConfig
from repro.detectors import (
    CertaintyCoverConfig,
    CertaintyCoverDetector,
    resolve_detector,
)
from repro.diffusion.mfc import MFCModel
from repro.errors import ConfigError, InvalidModelParameterError
from repro.experiments.config import WorkloadConfig
from repro.experiments.runner import AggregatedEvaluation, DetectorEvaluation
from repro.experiments.workload import build_workload
from repro.graphs.generators.random_graphs import signed_erdos_renyi
from repro.obs import MetricsRecorder
from repro.types import NodeState


@pytest.fixture(scope="module")
def network():
    return signed_erdos_renyi(
        60, 0.08, positive_probability=0.8, weight_range=(0.1, 0.6), rng=5
    )


@pytest.fixture(scope="module")
def cascade(network):
    seeds = {0: NodeState.POSITIVE, 7: NodeState.NEGATIVE}
    return MFCModel(alpha=3.0).run(network, seeds, rng=11)


class TestFacadeExports:
    def test_import_repro_detect_works(self):
        assert repro.detect is api.detect
        assert repro.simulate is api.simulate
        assert repro.evaluate is api.evaluate

    def test_blessed_types_reexported(self):
        for name in (
            "RIDConfig",
            "DetectionResult",
            "RuntimeConfig",
            "TrialReport",
            "MetricsRecorder",
            "TraceRecorder",
            "format_report",
            "using_recorder",
        ):
            assert hasattr(repro, name), name
            assert name in repro.__all__


class TestSimulate:
    def test_single_cascade_matches_model_run(self, network, cascade):
        seeds = {0: NodeState.POSITIVE, 7: NodeState.NEGATIVE}
        result = repro.simulate(network, seeds, model="mfc", rng=11)
        assert result.events == cascade.events
        assert result.final_states == cascade.final_states

    def test_model_instance_accepted(self, network):
        seeds = {0: NodeState.POSITIVE}
        result = repro.simulate(network, seeds, model=MFCModel(alpha=2.0), rng=3)
        assert 0 in result.infected_nodes()

    def test_default_model_is_mfc(self, network):
        seeds = {0: NodeState.POSITIVE}
        assert (
            repro.simulate(network, seeds, rng=3).events
            == repro.simulate(network, seeds, model="mfc", rng=3).events
        )

    def test_unknown_model_name(self, network):
        with pytest.raises(ConfigError, match="unknown diffusion model"):
            repro.simulate(network, {0: NodeState.POSITIVE}, model="sis")

    def test_multi_trial_returns_list(self, network):
        outs = repro.simulate(network, {0: NodeState.POSITIVE}, trials=3, rng=9)
        assert len(outs) == 3
        # trials use derived seeds -> independent cascades, deterministic
        again = repro.simulate(network, {0: NodeState.POSITIVE}, trials=3, rng=9)
        assert [o.events for o in outs] == [a.events for a in again]

    @pytest.mark.parametrize("trials", [0, -3])
    def test_trials_below_one_rejected(self, network, trials):
        recorder = MetricsRecorder()
        with pytest.raises(ConfigError, match=f"trials must be >= 1, got {trials}"):
            repro.simulate(
                network, {0: NodeState.POSITIVE}, trials=trials, recorder=recorder
            )
        assert "mc.trials" not in recorder.metrics.counters

    @pytest.mark.parametrize(
        "name, param",
        [
            (name, param)
            for name, factory in sorted(api.MODEL_REGISTRY.items())
            for param, spec in inspect.signature(factory).parameters.items()
            if spec.annotation in ("float", float)
        ],
    )
    def test_float_param_past_float_range_rejected(self, name, param):
        # A JSON int such as 10**400 reaches the constructors from /v1/simulate.
        with pytest.raises(InvalidModelParameterError):
            api.MODEL_REGISTRY[name](**{param: 10**400})

    @pytest.mark.parametrize("value", [2.5, True, "3"])
    @pytest.mark.parametrize(
        "name, param",
        [
            (name, param)
            for name, factory in sorted(api.MODEL_REGISTRY.items())
            for param, spec in inspect.signature(factory).parameters.items()
            if spec.annotation in ("int", int)
        ],
    )
    def test_round_cap_must_be_an_int(self, name, param, value):
        # A JSON 2.5 or true reaches the constructors from /v1/simulate: a
        # float cap must not be rounded up, nor a bool counted as 1.
        with pytest.raises(InvalidModelParameterError, match=f"{param} must be an int"):
            api.MODEL_REGISTRY[name](**{param: value})

    def test_multi_trial_needs_integer_seed(self, network):
        import random

        with pytest.raises(ConfigError, match="integer base seed"):
            repro.simulate(
                network, {0: NodeState.POSITIVE}, trials=2, rng=random.Random(0)
            )


class TestDetect:
    def test_diffusion_result_snapshot(self, network, cascade):
        result = repro.detect(network, cascade)
        assert result.method.startswith("rid")
        assert result.initiators <= set(cascade.infected_nodes())

    def test_none_snapshot_means_graph_is_infected(self, network, cascade):
        infected = cascade.infected_network(network)
        direct = repro.detect(infected)
        via_snapshot = repro.detect(network, cascade)
        assert direct.initiators == via_snapshot.initiators

    def test_mapping_snapshot(self, network, cascade):
        states = {node: int(state) for node, state in cascade.final_states.items()}
        result = repro.detect(network, states)
        assert result.initiators == repro.detect(network, cascade).initiators

    def test_mapping_snapshot_unknown_node(self, network):
        with pytest.raises(ConfigError, match="not in the network"):
            repro.detect(network, {"nope": 1})

    def test_custom_config(self, network, cascade):
        result = repro.detect(network, cascade, config=RIDConfig(beta=5.0))
        assert result.initiators  # heavy penalty -> fewer, but never zero

    def test_custom_detector(self, network, cascade):
        result = repro.detect(
            network,
            cascade,
            detector=CertaintyCoverDetector(CertaintyCoverConfig(alpha=3.0)),
        )
        assert result.method == "certainty-cover"

    def test_config_and_detector_conflict(self, network, cascade):
        with pytest.raises(ConfigError, match="not both"):
            repro.detect(
                network,
                cascade,
                config=RIDConfig(),
                detector=CertaintyCoverDetector(),
            )

    def test_budget_path(self, network, cascade):
        # the knapsack needs budget >= number of cascade trees (4 here)
        result = repro.detect(network, cascade, budget=5)
        assert len(result.initiators) == 5

    def test_recorder_sees_pipeline_stages(self, network, cascade):
        rec = MetricsRecorder()
        repro.detect(network, cascade, recorder=rec)
        counters = rec.metrics.counters
        assert counters["rid.trees"] >= 1
        assert counters["rid.components"] >= 1
        assert "rid.detect" in rec.metrics.timers
        assert "rid.tree_dp" in rec.metrics.timers


class TestNamedDetectors:
    def test_registry_rid_is_bit_identical_to_default(self, network, cascade):
        default = repro.detect(network, cascade)
        named = repro.detect(network, cascade, detector="rid")
        assert named.to_json() == default.to_json()

    def test_named_centrality_with_budget(self, network, cascade):
        result = repro.detect(
            network, cascade, detector="rumor_centrality", budget=5
        )
        assert result.method == "rumor-centrality(k=5)"
        assert len(result.initiators) == 5

    def test_hyphen_spelling_accepted(self, network, cascade):
        hyphen = repro.detect(network, cascade, detector="jordan-center")
        snake = repro.detect(network, cascade, detector="jordan_center")
        assert hyphen.initiators == snake.initiators

    def test_config_dict_for_named_detector(self, network, cascade):
        result = repro.detect(
            network,
            cascade,
            detector="map_suspect",
            config={"trials": 2, "candidate_limit": 4},
        )
        assert result.method == "map-suspect"

    def test_unknown_name_lists_registry(self, network, cascade):
        with pytest.raises(ConfigError, match="unknown detector"):
            repro.detect(network, cascade, detector="page_rank")

    def test_runtime_rejected_by_in_process_detector(self, network, cascade):
        from repro.runtime.config import RuntimeConfig

        with pytest.raises(ConfigError, match="cannot honour"):
            repro.detect(
                network,
                cascade,
                detector="jordan_center",
                runtime=RuntimeConfig(workers=2),
            )

    def test_detector_metrics_are_recorded(self, network, cascade):
        rec = MetricsRecorder()
        repro.detect(network, cascade, detector="distance_center", recorder=rec)
        counters = rec.metrics.counters
        assert counters["detector.requests"] == 1
        assert counters["detector.distance_center.requests"] == 1
        assert counters["detector.initiators"] >= 1


class TestEvaluateRuntime:
    """evaluate() must forward runtime= or raise — never drop it."""

    @pytest.fixture(scope="class")
    def workload(self):
        return build_workload(
            WorkloadConfig(dataset="epinions", scale=0.004, seed=3), trial=0
        )

    def test_runtime_forwarded_to_rid(self, workload):
        from repro.runtime.config import RuntimeConfig

        serial = repro.evaluate(RID(RIDConfig()), workload)
        parallel = repro.evaluate(
            RID(RIDConfig()), workload, RuntimeConfig(workers=2)
        )
        assert parallel.identity.f1 == serial.identity.f1

    def test_runtime_reaches_in_process_detector(self, workload):
        from repro.detectors.centrality import JordanCenterDetector
        from repro.runtime.config import RuntimeConfig

        with pytest.raises(ConfigError, match="cannot honour"):
            repro.evaluate(
                JordanCenterDetector(), workload, RuntimeConfig(workers=2)
            )

    def test_inert_runtime_accepted(self, workload):
        from repro.detectors.centrality import JordanCenterDetector
        from repro.runtime.config import RuntimeConfig

        evaluation = repro.evaluate(
            JordanCenterDetector(), workload, RuntimeConfig()
        )
        assert isinstance(evaluation, DetectorEvaluation)

    def test_named_detector_evaluation(self):
        config = WorkloadConfig(dataset="epinions", scale=0.004, seed=3)
        aggregated = repro.evaluate("distance_center", config, trials=2)
        assert isinstance(aggregated, AggregatedEvaluation)

    def test_config_requires_registry_name(self):
        config = WorkloadConfig(dataset="epinions", scale=0.004, seed=3)
        with pytest.raises(ConfigError, match="registry names"):
            repro.evaluate(
                RID(RIDConfig()), config, config={"trials": 2}, trials=1
            )


class TestEvaluate:
    def test_workload_form(self):
        config = WorkloadConfig(dataset="epinions", scale=0.004, seed=3)
        workload = build_workload(config, trial=0)
        evaluation = repro.evaluate(RID(RIDConfig()), workload)
        assert isinstance(evaluation, DetectorEvaluation)
        assert 0.0 <= evaluation.identity.f1 <= 1.0

    def test_config_form_aggregates(self):
        config = WorkloadConfig(dataset="epinions", scale=0.004, seed=3)
        aggregated = repro.evaluate(
            lambda: RID(RIDConfig()), config, trials=2
        )
        assert isinstance(aggregated, AggregatedEvaluation)
        assert aggregated.trials == 2

    def test_rejects_other_workloads(self):
        with pytest.raises(ConfigError, match="Workload or WorkloadConfig"):
            repro.evaluate(RID(RIDConfig()), workload="fig4")

    @pytest.mark.parametrize("trials", [0, -2])
    def test_config_form_rejects_non_positive_trials(self, trials):
        config = WorkloadConfig(dataset="epinions", scale=0.004, seed=3)
        with pytest.raises(ConfigError, match=f"trials must be >= 1, got {trials}"):
            repro.evaluate("distance_center", config, trials=trials)


class TestApiErrorPaths:
    """The facade's rejection branches, each pinned to its message."""

    def test_backend_with_model_instance_conflicts(self, network):
        with pytest.raises(ConfigError, match="pass backend= to the model"):
            repro.simulate(
                network,
                {0: NodeState.POSITIVE},
                model=MFCModel(alpha=3.0),
                backend="python",
            )

    def test_backend_with_kernel_free_model_name(self, network):
        # LT does not run on the cascade kernel; the registry factory
        # takes no backend= and the facade translates the TypeError.
        with pytest.raises(ConfigError, match="does not run on the cascade kernel"):
            repro.simulate(
                network, {0: NodeState.POSITIVE}, model="lt", backend="numpy"
            )

    def test_unknown_model_of_wrong_type(self, network):
        # Unhashable model values hit the registry's TypeError branch.
        with pytest.raises(ConfigError, match="unknown diffusion model"):
            repro.simulate(network, {0: NodeState.POSITIVE}, model=["mfc"])

    def test_non_int_rng_with_trials(self, network):
        with pytest.raises(ConfigError, match="integer base seed, got Random"):
            import random

            repro.simulate(
                network, {0: NodeState.POSITIVE}, trials=2, rng=random.Random(1)
            )

    def test_config_plus_detector_conflict_message(self, network, cascade):
        with pytest.raises(ConfigError, match="not both"):
            repro.detect(
                network, cascade, config=RIDConfig(), detector=CertaintyCoverDetector()
            )

    @pytest.mark.parametrize("workload", ["fig4", 7, None, {"dataset": "epinions"}])
    def test_evaluate_rejects_unknown_workload_types(self, workload):
        with pytest.raises(ConfigError, match="Workload or WorkloadConfig"):
            repro.evaluate(RID(RIDConfig()), workload)


class TestRIDConfigValidation:
    def test_invalid_config_raises_at_construction(self):
        with pytest.raises(ConfigError):
            RID(RIDConfig(alpha=0.5))

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"alpha": 0.5}, "alpha must be >= 1, got 0.5"),
            ({"beta": -1.0}, "beta must be >= 0, got -1.0"),
            ({"score": "weird"}, "score must be 'log' or 'raw', got 'weird'"),
            ({"alpha": float("nan")}, "alpha must be finite, got nan"),
            ({"alpha": float("inf")}, "alpha must be finite, got inf"),
            ({"beta": float("nan")}, "beta must be finite, got nan"),
            ({"beta": float("inf")}, "beta must be finite, got inf"),
            ({"beta": float("-inf")}, "beta must be finite, got -inf"),
        ],
    )
    def test_error_messages_name_field_and_value(self, kwargs, message):
        with pytest.raises(ConfigError, match="^" + message.replace("(", "\\(")):
            RIDConfig(**kwargs).validate()


class TestBudgetKwargUnification:
    def test_new_spellings_are_warning_free(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            for name in ("k_effectors", "simulation_matching", "certainty_cover"):
                resolve_detector(name, {"budget": 2})
