"""The pipeline-identity gate.

:class:`~repro.core.rid.RID`, running the cached steps of
:mod:`repro.pipeline.stages`, must be
**bit-identical** to the pre-refactor sequential implementation frozen
in ``tests/oracles/rid_reference.py`` — initiators, inferred states,
objective, cascade-tree contents and ordering, per-tree selections —
on the golden regression workload and across execution modes (serial,
parallel, cache-warm). CI runs this gate on every push; see also
``benchmarks/bench_pipeline.py`` which re-asserts identity on larger
randomised multi-component snapshots.
"""

import pytest

from repro.core.rid import RID, RIDConfig
from repro.experiments.config import WorkloadConfig
from repro.experiments.workload import build_workload
from repro.runtime.config import RuntimeConfig
from tests.oracles.rid_reference import (
    reference_detect,
    reference_detect_with_budget,
)


@pytest.fixture(scope="module")
def golden_infected():
    workload = build_workload(
        WorkloadConfig(dataset="epinions", scale=0.003, seed=123)
    )
    return workload.infected


def assert_results_identical(actual, expected):
    assert actual.method == expected.method
    assert actual.initiators == expected.initiators
    assert actual.states == expected.states
    assert actual.objective == expected.objective
    assert len(actual.trees) == len(expected.trees)
    for actual_tree, expected_tree in zip(actual.trees, expected.trees):
        assert sorted(actual_tree.nodes(), key=repr) == sorted(
            expected_tree.nodes(), key=repr
        )
        assert sorted(
            (u, v, int(d.sign), d.weight) for u, v, d in actual_tree.iter_edges()
        ) == sorted(
            (u, v, int(d.sign), d.weight) for u, v, d in expected_tree.iter_edges()
        )


def assert_selections_identical(actual, expected, budgeted):
    """Per-tree selections; ``scanned_k`` in budget mode only (RID's β
    mode scans no budget and reports 0)."""
    assert len(actual) == len(expected)
    for a, e in zip(actual, expected):
        assert a.tree_size == e.tree_size
        assert a.k == e.k
        assert a.score == e.score
        assert a.penalized_objective == e.penalized_objective
        assert a.initiators == e.initiators
        assert a.scanned_k == (e.scanned_k if budgeted else 0)


class TestDetectIdentity:
    @pytest.mark.parametrize("beta", [0.1, 0.8])
    def test_engine_matches_reference(self, golden_infected, beta):
        config = RIDConfig(beta=beta)
        expected, expected_selections = reference_detect(config, golden_infected)
        detector = RID(config)
        actual = detector.detect(golden_infected)
        assert_results_identical(actual, expected)
        assert_selections_identical(
            detector.last_selections, expected_selections, budgeted=False
        )

    def test_parallel_matches_reference(self, golden_infected):
        config = RIDConfig(beta=0.8)
        expected, expected_selections = reference_detect(config, golden_infected)
        detector = RID(config)
        actual = detector.detect(
            golden_infected, runtime=RuntimeConfig(workers=2)
        )
        assert_results_identical(actual, expected)
        assert_selections_identical(
            detector.last_selections, expected_selections, budgeted=False
        )

    def test_cache_warm_matches_reference(self, golden_infected):
        config = RIDConfig(beta=0.8)
        expected, _ = reference_detect(config, golden_infected)
        detector = RID(config)
        detector.detect(golden_infected)  # warm every artifact
        assert detector.cache.stats()["entries"] > 0
        actual = detector.detect(golden_infected)
        assert_results_identical(actual, expected)


class TestRegistryIdentity:
    """Registry-resolved ``'rid'`` must stay bit-identical to building
    ``RID(config)`` directly — the detector seam adds no behaviour."""

    @pytest.mark.parametrize("beta", [0.1, 0.8])
    def test_resolved_rid_matches_direct(self, golden_infected, beta):
        from repro.detectors import resolve_detector

        config = RIDConfig(beta=beta)
        direct = RID(config).detect(golden_infected)
        resolved = resolve_detector("rid", config).detect(golden_infected)
        assert_results_identical(resolved, direct)
        assert resolved.to_json() == direct.to_json()

    def test_resolved_rid_budget_matches_direct(self, golden_infected):
        from repro.detectors import resolve_detector

        config = RIDConfig()
        base = RID(config).detect(golden_infected)
        budget = len(base.trees) + 2
        direct = RID(config).detect_with_budget(golden_infected, budget=budget)
        resolved = resolve_detector("rid", config).detect_with_budget(
            golden_infected, budget=budget
        )
        assert_results_identical(resolved, direct)

    def test_facade_name_matches_direct(self, golden_infected):
        import repro

        direct = RID(RIDConfig()).detect(golden_infected)
        named = repro.detect(golden_infected, detector="rid")
        assert named.to_json() == direct.to_json()


class TestBudgetIdentity:
    def test_engine_matches_reference_across_budgets(self, golden_infected):
        config = RIDConfig()
        # Minimum feasible budget = number of extracted trees.
        base, _ = reference_detect(config, golden_infected)
        min_budget = len(base.trees)
        for budget in (min_budget, min_budget + 3, min_budget + 10):
            expected, expected_selections = reference_detect_with_budget(
                config, golden_infected, budget
            )
            detector = RID(config)
            actual = detector.detect_with_budget(golden_infected, budget=budget)
            assert_results_identical(actual, expected)
            assert_selections_identical(
                detector.last_selections, expected_selections, budgeted=True
            )

    def test_budget_sweep_on_shared_engine_matches_reference(self, golden_infected):
        """Curve reuse across a sweep must not change any answer."""
        config = RIDConfig()
        base, _ = reference_detect(config, golden_infected)
        min_budget = len(base.trees)
        detector = RID(config)  # one cache shared across the sweep
        for budget in range(min_budget, min_budget + 6):
            expected, _ = reference_detect_with_budget(
                config, golden_infected, budget
            )
            actual = detector.detect_with_budget(golden_infected, budget=budget)
            assert_results_identical(actual, expected)

    def test_parallel_budget_matches_reference(self, golden_infected):
        config = RIDConfig()
        base, _ = reference_detect(config, golden_infected)
        budget = len(base.trees) + 5
        expected, _ = reference_detect_with_budget(config, golden_infected, budget)
        actual = RID(config).detect_with_budget(
            golden_infected, budget=budget, runtime=RuntimeConfig(workers=2)
        )
        assert_results_identical(actual, expected)
