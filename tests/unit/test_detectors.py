"""Unit tests for the :mod:`repro.detectors` package.

Covers the registry (canonical names, config coercion, content
digests), the zoo-wide empty-infection, runtime and budget-keyword
contracts, the two estimator additions (suspect-prior MAP, community
multi-source) and the centrality edge cases.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.detectors import (
    DetectionResult,
    Detector,
    detector_names,
    resolve_detector,
)
from repro.detectors.base import check_runtime
from repro.detectors.centrality import (
    CentralityConfig,
    DistanceCenterDetector,
    JordanCenterDetector,
    RumorCentralityDetector,
    select_with_budget,
)
from repro.detectors.map_suspect import MapSuspectConfig, MapSuspectDetector
from repro.detectors.multi_source import MultiSourceConfig, MultiSourceDetector
from repro.detectors.registry import (
    DETECTOR_REGISTRY,
    TIER_ROUTING,
    canonical_detector_name,
    coerce_detector_config,
    detector_config_to_json,
    detector_digest,
    detector_spec,
)
from repro.errors import ConfigError, EmptyInfectionError
from repro.graphs.generators.trees import path_graph, star_graph
from repro.graphs.signed_digraph import SignedDiGraph
from repro.obs.metrics import MetricsRecorder
from repro.runtime.config import RuntimeConfig
from repro.types import NodeState

ALL_NAMES = sorted(DETECTOR_REGISTRY)


def infected_path(n: int, prefix: str = "") -> SignedDiGraph:
    g = SignedDiGraph()
    for i in range(n - 1):
        g.add_edge(f"{prefix}{i}", f"{prefix}{i + 1}", 1, 0.5)
    if n == 1:
        g.add_node(f"{prefix}0")
    for node in g.nodes():
        g.set_state(node, NodeState.POSITIVE)
    return g


def two_component_snapshot() -> SignedDiGraph:
    merged = SignedDiGraph()
    for prefix in ("a", "b"):
        part = infected_path(3, prefix)
        for u, v, d in part.iter_edges():
            merged.add_edge(u, v, int(d.sign), d.weight)
    for node in merged.nodes():
        merged.set_state(node, NodeState.POSITIVE)
    return merged


class TestRegistry:
    def test_every_expected_name_is_registered(self):
        assert detector_names() == ALL_NAMES
        for name in (
            "rid",
            "rid_positive",
            "rid_tree",
            "rumor_centrality",
            "jordan_center",
            "distance_center",
            "map_suspect",
            "multi_source",
            "k_effectors",
            "simulation_matching",
            "certainty_cover",
        ):
            assert name in DETECTOR_REGISTRY

    @pytest.mark.parametrize(
        "spelling", ["jordan_center", "jordan-center", " Jordan-Center "]
    )
    def test_canonical_name_normalises(self, spelling):
        assert canonical_detector_name(spelling) == "jordan_center"

    def test_unknown_name_lists_the_registry(self):
        with pytest.raises(ConfigError, match="registered detectors"):
            canonical_detector_name("page_rank")

    def test_non_string_name(self):
        with pytest.raises(ConfigError, match="must be a string"):
            canonical_detector_name(7)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_every_entry_resolves_with_defaults(self, name):
        assert isinstance(resolve_detector(name), Detector)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_every_entry_is_built_from_its_config(self, name):
        spec = detector_spec(name)
        config = spec.config_cls()
        detector = spec.detector_cls(config)
        assert detector.config is config
        assert type(resolve_detector(name)) is spec.detector_cls

    def test_instance_passes_through(self):
        built = JordanCenterDetector()
        assert resolve_detector(built) is built

    def test_instance_with_config_conflicts(self):
        with pytest.raises(ConfigError, match="pre-built"):
            resolve_detector(JordanCenterDetector(), CentralityConfig())

    def test_tier_routing_names_are_registered(self):
        assert set(TIER_ROUTING) == {"fast", "accurate"}
        for name in TIER_ROUTING.values():
            assert name in DETECTOR_REGISTRY

    def test_resolution_counter(self):
        from repro.obs.recorder import using_recorder

        rec = MetricsRecorder()
        with using_recorder(rec):
            resolve_detector("distance_center")
        assert rec.metrics.counters["detector.resolved.distance_center"] == 1


class TestConfigCoercion:
    def test_none_means_defaults(self):
        config = coerce_detector_config("map_suspect")
        assert isinstance(config, MapSuspectConfig)
        assert config.trials == MapSuspectConfig().trials

    def test_dict_is_field_checked(self):
        config = coerce_detector_config("map_suspect", {"trials": 4})
        assert config.trials == 4

    def test_unknown_dict_keys_raise(self):
        with pytest.raises(ConfigError, match=r"\['iterations'\]"):
            coerce_detector_config("map_suspect", {"iterations": 4})

    def test_wrong_dataclass_type_raises(self):
        with pytest.raises(ConfigError, match="MultiSourceConfig"):
            coerce_detector_config("multi_source", MapSuspectConfig())

    def test_coerced_config_is_validated(self):
        with pytest.raises(ConfigError, match="trials must be >= 1"):
            coerce_detector_config("map_suspect", {"trials": 0})

    @pytest.mark.parametrize(
        "name, config, field",
        [
            ("rid", {"beta": "x"}, "RIDConfig.beta"),
            ("rid", {"alpha": None}, "RIDConfig.alpha"),
            ("rid", {"inconsistent_value": "x"}, "RIDConfig.inconsistent_value"),
            ("rid", {"prune_inconsistent": 1}, "RIDConfig.prune_inconsistent"),
            ("map_suspect", {"trials": "x"}, "MapSuspectConfig.trials"),
            ("map_suspect", {"trials": True}, "MapSuspectConfig.trials"),
            ("k_effectors", {"trials": 1.5}, "KEffectorsConfig.trials"),
            ("certainty_cover", {"alpha": False}, "CertaintyCoverConfig.alpha"),
        ],
    )
    def test_wrong_typed_values_raise_config_error(self, name, config, field):
        with pytest.raises(ConfigError, match=rf"^{field} must be "):
            coerce_detector_config(name, config)

    def test_json_number_forms_are_accepted(self):
        # A JSON int is a valid float; None is a valid Optional[int].
        config = coerce_detector_config(
            "rid", {"alpha": 4, "beta": 0, "inconsistent_value": 0}
        )
        assert (config.alpha, config.beta, config.inconsistent_value) == (4, 0, 0)
        assert coerce_detector_config("certainty_cover", {"budget": 3}).budget == 3
        assert coerce_detector_config("certainty_cover", {"budget": None}).budget is None

    def test_config_to_json_round_trip(self):
        payload = detector_config_to_json(MapSuspectConfig(trials=3))
        assert payload["trials"] == 3
        assert detector_config_to_json(None) is None


class TestDetectorDigest:
    def test_digest_is_stable(self):
        assert detector_digest("rid") == detector_digest("rid")
        assert detector_digest("map_suspect", {"trials": 8}) == detector_digest(
            "map_suspect", MapSuspectConfig()
        )

    def test_digest_separates_configs(self):
        assert detector_digest("map_suspect", {"trials": 4}) != detector_digest(
            "map_suspect", {"trials": 5}
        )

    def test_digest_separates_detectors(self):
        # Same (empty) config dataclass, different registry entries.
        assert detector_digest("jordan_center") != detector_digest(
            "distance_center"
        )


class TestEmptyInfectionContract:
    """Satellite: the whole zoo fails empty input the way RID does."""

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_detect_raises_empty_infection(self, name):
        detector = resolve_detector(name)
        with pytest.raises(EmptyInfectionError):
            detector.detect(SignedDiGraph())

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_budget_zero_on_empty_returns_empty_result(self, name):
        detector = resolve_detector(name)
        result = detector.detect_with_budget(SignedDiGraph(), budget=0)
        assert result.initiators == set()
        assert result.method.endswith("(k=0)")

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_nonzero_budget_on_empty_raises(self, name):
        detector = resolve_detector(name)
        with pytest.raises(ConfigError, match=r"budget must be in \[0, 0\]"):
            detector.detect_with_budget(SignedDiGraph(), budget=2)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_none_budget_raises(self, name):
        # RID's engine reads budget=None as β mode; a budgeted entry
        # point must refuse it rather than answer open-ended.
        detector = resolve_detector(name)
        with pytest.raises(ConfigError, match="needs an initiator budget"):
            detector.detect_with_budget(infected_path(3), None)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_legacy_budget_spellings_raise(self, name):
        # k= and max_k= left the signatures after their deprecation
        # cycle: a stale call is Python's own TypeError.
        detector = resolve_detector(name)
        with pytest.raises(TypeError, match="unexpected keyword argument 'k'"):
            detector.detect_with_budget(infected_path(3), k=3)


class TestRuntimeContract:
    """Satellite: runtime= is honoured or rejected, never dropped."""

    @pytest.mark.parametrize(
        "name", [n for n in ALL_NAMES if n != "rid"]
    )
    def test_inert_runtime_is_accepted(self, name):
        detector = resolve_detector(name)
        result = detector.detect(infected_path(3), runtime=RuntimeConfig())
        assert result.initiators

    @pytest.mark.parametrize(
        "name", [n for n in ALL_NAMES if n != "rid"]
    )
    def test_parallel_runtime_is_rejected(self, name):
        detector = resolve_detector(name)
        with pytest.raises(ConfigError, match="cannot honour"):
            detector.detect(infected_path(3), runtime=RuntimeConfig(workers=2))

    @pytest.mark.parametrize("name", ALL_NAMES)
    @pytest.mark.parametrize(
        "runtime, message",
        [
            (RuntimeConfig(workers=0), "workers must be >= 1, got 0"),
            (RuntimeConfig(chunk_size=0), "chunk_size must be >= 1 or None, got 0"),
        ],
    )
    def test_invalid_runtime_is_rejected(self, name, runtime, message):
        detector = resolve_detector(name)
        with pytest.raises(ConfigError, match=message):
            detector.detect(infected_path(3), runtime=runtime)

    def test_cache_dir_runtime_is_rejected(self, tmp_path):
        detector = resolve_detector("distance_center")
        with pytest.raises(ConfigError, match="cannot honour"):
            detector.detect(
                infected_path(3),
                runtime=RuntimeConfig(cache_dir=str(tmp_path)),
            )

    def test_non_runtime_object_is_rejected(self):
        with pytest.raises(ConfigError, match="RuntimeConfig or None"):
            check_runtime("jordan-center", "workers=2")


class TestSelectWithBudget:
    def test_budget_below_component_floor(self):
        scores = [{"a": 1.0}, {"b": 1.0}]
        with pytest.raises(ConfigError, match=r"budget must be in \[2, 2\]"):
            select_with_budget(scores, 1, method="test")

    def test_budget_above_node_count(self):
        with pytest.raises(ConfigError, match=r"budget must be in \[1, 2\]"):
            select_with_budget([{"a": 1.0, "b": 0.5}], 3, method="test")

    def test_remainder_goes_to_best_scores(self):
        scores = [{"a": 3.0, "b": 2.0, "c": 1.0}]
        assert select_with_budget(scores, 2, method="test") == {"a", "b"}

    def test_score_ties_break_on_repr(self):
        scores = [{"z": 1.0, "a": 1.0, "m": 1.0}]
        assert select_with_budget(scores, 2, method="test") == {"a", "m"}


class TestCentralityEdgeCases:
    """Satellite: single node, disconnected subgraph, determinism."""

    @pytest.mark.parametrize(
        "cls", [RumorCentralityDetector, JordanCenterDetector, DistanceCenterDetector]
    )
    def test_single_node_infection(self, cls):
        g = SignedDiGraph()
        g.add_node("only", NodeState.POSITIVE)
        result = cls().detect(g)
        assert result.initiators == {"only"}
        budgeted = cls().detect_with_budget(g, budget=1)
        assert budgeted.initiators == {"only"}

    @pytest.mark.parametrize(
        "cls", [RumorCentralityDetector, JordanCenterDetector, DistanceCenterDetector]
    )
    def test_disconnected_infected_subgraph(self, cls):
        snapshot = two_component_snapshot()
        result = cls().detect(snapshot)
        assert result.initiators == {"a1", "b1"}

    def test_budget_spans_components(self):
        snapshot = two_component_snapshot()
        result = DistanceCenterDetector().detect_with_budget(snapshot, budget=4)
        assert len(result.initiators) == 4
        assert {"a1", "b1"} <= result.initiators

    @pytest.mark.parametrize("hash_seed", ["0", "1", "31337"])
    def test_tie_breaking_survives_hash_seed(self, hash_seed):
        """A perfectly symmetric snapshot forces a tie; the winner must
        not depend on PYTHONHASHSEED (set-iteration order)."""
        script = (
            "from repro.detectors import resolve_detector\n"
            "from repro.graphs.signed_digraph import SignedDiGraph\n"
            "from repro.types import NodeState\n"
            "g = SignedDiGraph()\n"
            "ring = ['ant', 'bee', 'cat', 'dog', 'eel', 'fox']\n"
            "for i, u in enumerate(ring):\n"
            "    g.add_edge(u, ring[(i + 1) % len(ring)], 1, 0.5)\n"
            "for node in g.nodes():\n"
            "    g.set_state(node, NodeState.POSITIVE)\n"
            "for name in ('jordan_center', 'distance_center', 'multi_source'):\n"
            "    d = resolve_detector(name)\n"
            "    print(name, sorted(d.detect(g).initiators))\n"
        )
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = hash_seed
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
        out = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        # Every ring node ties; repr-sorted tie-breaking must always
        # pick the same winners regardless of the interpreter's hash
        # seed (multi_source keeps a second, antipodal source — also a
        # pure tie-break).
        assert out.splitlines() == [
            "jordan_center ['ant']",
            "distance_center ['ant']",
            "multi_source ['ant', 'dog']",
        ]


class TestMapSuspect:
    def test_recovers_star_hub(self):
        star = star_graph(8)
        for node in star.nodes():
            star.set_state(node, NodeState.POSITIVE)
        result = MapSuspectDetector(MapSuspectConfig(trials=6)).detect(star)
        assert result.initiators == {0}
        assert result.objective is not None

    def test_deterministic_across_runs(self):
        snapshot = two_component_snapshot()
        config = MapSuspectConfig(trials=4, seed=9)
        first = MapSuspectDetector(config).detect(snapshot)
        second = MapSuspectDetector(config).detect(snapshot)
        assert first.initiators == second.initiators
        assert first.objective == second.objective

    def test_candidate_limit_caps_suspects(self):
        star = star_graph(12)
        for node in star.nodes():
            star.set_state(node, NodeState.POSITIVE)
        rec = MetricsRecorder()
        config = MapSuspectConfig(trials=2, candidate_limit=3)
        MapSuspectDetector(config).detect(star, recorder=rec)
        assert rec.metrics.counters["detector.map_suspect.simulations"] == 3 * 2

    def test_budgeted_selection(self):
        snapshot = two_component_snapshot()
        result = MapSuspectDetector(MapSuspectConfig(trials=3)).detect_with_budget(
            snapshot, budget=3
        )
        assert len(result.initiators) == 3
        assert result.method == "map-suspect(k=3)"

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"model": "lt"}, "model must be one of"),
            ({"trials": 0}, "trials must be >= 1"),
            ({"candidate_limit": 0}, "candidate_limit must be >= 1 or None"),
            ({"smoothing": 0.0}, r"smoothing must be in \(0, 1\)"),
            ({"alpha": 0.5}, "alpha must be >= 1"),
            ({"prior": "zipf"}, "prior must be one of"),
        ],
    )
    def test_config_validation(self, kwargs, message):
        with pytest.raises(ConfigError, match=message):
            MapSuspectConfig(**kwargs).validate()

    def test_degree_prior_accepted(self):
        star = star_graph(5)
        for node in star.nodes():
            star.set_state(node, NodeState.POSITIVE)
        config = MapSuspectConfig(trials=3, prior="degree")
        result = MapSuspectDetector(config).detect(star)
        assert result.initiators == {0}


class TestMultiSource:
    def dumbbell(self) -> SignedDiGraph:
        """Two stars joined by a long path — two sources, one component."""
        g = SignedDiGraph()
        for leaf in range(1, 5):
            g.add_edge("L", f"l{leaf}", 1, 0.5)
            g.add_edge("R", f"r{leaf}", 1, 0.5)
        chain = ["L", "m1", "m2", "m3", "m4", "m5", "R"]
        for u, v in zip(chain, chain[1:]):
            g.add_edge(u, v, 1, 0.5)
        for node in g.nodes():
            g.set_state(node, NodeState.POSITIVE)
        return g

    def test_splits_the_dumbbell(self):
        config = MultiSourceConfig(max_sources_per_component=2)
        result = MultiSourceDetector(config).detect(self.dumbbell())
        assert len(result.initiators) == 2
        left = {"L", "l1", "l2", "l3", "l4", "m1", "m2"}
        right = {"R", "r1", "r2", "r3", "r4", "m4", "m5"}
        assert any(n in left for n in result.initiators)
        assert any(n in right for n in result.initiators)

    def test_single_source_on_a_path(self):
        result = MultiSourceDetector().detect(infected_path(5))
        assert result.initiators == {"2"}

    def test_elbow_rule_stops_growth(self):
        # A tiny path cannot justify 4 sources; radius gains vanish.
        config = MultiSourceConfig(
            max_sources_per_component=4, min_radius_improvement=2
        )
        result = MultiSourceDetector(config).detect(infected_path(4))
        assert len(result.initiators) == 1

    def test_budget_distributes_across_components(self):
        snapshot = two_component_snapshot()
        result = MultiSourceDetector().detect_with_budget(snapshot, budget=4)
        assert len(result.initiators) == 4

    def test_budget_feasibility_range(self):
        snapshot = two_component_snapshot()  # 2 components, 6 nodes
        detector = MultiSourceDetector()
        with pytest.raises(ConfigError, match=r"budget must be in \[2, 6\]"):
            detector.detect_with_budget(snapshot, budget=1)
        with pytest.raises(ConfigError, match=r"budget must be in \[2, 6\]"):
            detector.detect_with_budget(snapshot, budget=7)

    def test_sources_counter(self):
        rec = MetricsRecorder()
        MultiSourceDetector().detect(infected_path(4), recorder=rec)
        assert rec.metrics.counters["detector.multi_source.sources"] >= 1

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"max_sources_per_component": 0}, "max_sources_per_component"),
            ({"min_radius_improvement": -1}, "min_radius_improvement"),
        ],
    )
    def test_config_validation(self, kwargs, message):
        with pytest.raises(ConfigError, match=message):
            MultiSourceConfig(**kwargs).validate()


class TestResultContract:
    @pytest.mark.parametrize("name", ["jordan_center", "multi_source"])
    def test_results_round_trip_through_json(self, name):
        result = resolve_detector(name).detect(two_component_snapshot())
        decoded = DetectionResult.from_json(result.to_json())
        assert decoded.initiators == result.initiators
        assert decoded.method == result.method


class TestRecorderContract:
    """A recorder passed to ``detect`` receives everything the detector
    records, also from the layers it calls without ``recorder=``."""

    @pytest.mark.parametrize("name", ["k_effectors", "simulation_matching"])
    def test_passed_recorder_reaches_the_monte_carlo_layers(self, name):
        # test_detector_pins runs with the recorder also ambient; here it
        # is only passed, and must still see the same counters and spans.
        from tests.unit.test_detector_pins import OPEN, snapshot

        rec = MetricsRecorder()
        resolve_detector(name).detect(snapshot(), recorder=rec)
        counters, timers = OPEN[name][3:]
        assert dict(rec.metrics.counters) == counters
        assert {timer: stat.count for timer, stat in rec.metrics.timers.items()} == timers
