"""Unit tests for the batched Monte-Carlo tier.

Pins the contracts of ``simulate_batch`` and the ``estimate_spread``
fast path: bit-identity to ``simulate_many`` on the python backend, the
fallback summariser for non-batchable configurations, the legacy
aggregation semantics of ``estimate_spread``, summary-helper edge cases,
``mc.batch.*`` metrics, and the numpy-absent degradation (this module
is part of the pure-python tier-1 surface — the CI no-numpy leg runs
it).
"""

import sys
import warnings

import pytest

import repro.kernel.backends as backends
from repro.diffusion import (
    ICModel,
    MFCModel,
    SIRModel,
    estimate_spread,
    simulate_batch,
    simulate_many,
)
from repro.errors import ConfigError
from repro.graphs.generators.random_graphs import signed_erdos_renyi
from repro.kernel import compile_graph, run_mfc_batch
from repro.kernel.batch import CascadeBatchSummary
from repro.kernel.cascade import check_seeds_compiled
from repro.obs import MetricsRecorder, using_recorder
from repro.runtime.config import RuntimeConfig
from repro.types import NodeState
from repro.utils.rng import derive_seed
from tests.oracles.cascades import ReferenceICModel, ReferenceMFCModel


@pytest.fixture(autouse=True)
def _clean_dispatch_state(monkeypatch):
    """Isolate each test from cached probes, instances and env overrides."""
    monkeypatch.delenv(backends.ENV_VAR, raising=False)
    backends._reset_for_tests()
    yield
    backends._reset_for_tests()


def _without_numpy(monkeypatch):
    """Make ``import numpy`` raise ImportError inside this test."""
    for name in [m for m in sys.modules if m == "numpy" or m.startswith("numpy.")]:
        monkeypatch.delitem(sys.modules, name)
    # A None entry makes the import system raise ImportError immediately.
    monkeypatch.setitem(sys.modules, "numpy", None)


def _graph(rng=3):
    return signed_erdos_renyi(
        60, 0.08, positive_probability=0.7, weight_range=(0.2, 0.8), rng=rng
    )


def _seeds(graph, count=3):
    nodes = sorted(graph.nodes(), key=repr)[:count]
    return {
        node: NodeState.POSITIVE if i % 2 == 0 else NodeState.NEGATIVE
        for i, node in enumerate(nodes)
    }


class TestPythonBitIdentity:
    """The python batch tier must replay ``simulate_many`` to the bit."""

    def test_mfc_matches_simulate_many(self):
        graph = _graph()
        seeds = _seeds(graph)
        model = MFCModel(alpha=2.5)
        recorder = MetricsRecorder()
        with using_recorder(recorder):
            results = simulate_many(model, graph, seeds, 10, base_seed=7)
        summary = simulate_batch(
            model, graph, seeds, 10, base_seed=7, record_states=True
        )
        assert summary.trials == 10
        # The batch runs the single cascade's loop, so it rolls exactly
        # the RNG draws the per-trial cascades recorded.
        assert summary.attempts == recorder.metrics.counters["kernel.mfc.attempts"]
        assert summary.attempts > 0
        for trial, result in enumerate(results):
            assert summary.final_states(trial) == result.final_states
            assert summary.rounds[trial] == result.rounds
            assert summary.flips[trial] == sum(
                1 for event in result.events if event.was_flip
            )
            positive = sum(
                1
                for state in result.final_states.values()
                if state is NodeState.POSITIVE
            )
            assert summary.positive[trial] == positive
            assert summary.infected[trial] == len(result.final_states)

    def test_ic_matches_simulate_many(self):
        graph = _graph(rng=5)
        seeds = _seeds(graph)
        model = ICModel()
        recorder = MetricsRecorder()
        with using_recorder(recorder):
            results = simulate_many(model, graph, seeds, 8, base_seed=3)
        summary = simulate_batch(
            model, graph, seeds, 8, base_seed=3, record_states=True
        )
        assert summary.flips == [0] * 8
        assert summary.attempts == recorder.metrics.counters["kernel.ic.attempts"]
        assert summary.attempts > 0
        for trial, result in enumerate(results):
            assert summary.final_states(trial) == result.final_states
            assert summary.rounds[trial] == result.rounds

    def test_parallel_chunks_match_serial(self):
        graph = _graph()
        seeds = _seeds(graph)
        model = MFCModel(alpha=2.0)
        serial = simulate_batch(
            model, graph, seeds, 16, base_seed=9, record_states=True
        )
        chunked = simulate_batch(
            model,
            graph,
            seeds,
            16,
            base_seed=9,
            runtime=RuntimeConfig(workers=2),
            record_states=True,
        )
        assert chunked.trials == serial.trials == 16
        assert chunked.infected == serial.infected
        assert chunked.flips == serial.flips
        assert chunked.rounds == serial.rounds
        assert chunked.attempts == serial.attempts
        for trial in range(16):
            assert chunked.final_states(trial) == serial.final_states(trial)


class TestFallbackPath:
    """Non-batchable configurations take ``simulate_many`` + summarise."""

    def test_non_kernel_model_summarised(self):
        graph = _graph()
        seeds = _seeds(graph)
        model = SIRModel()
        results = simulate_many(model, graph, seeds, 5, base_seed=1)
        summary = simulate_batch(
            model, graph, seeds, 5, base_seed=1, record_states=True
        )
        for trial, result in enumerate(results):
            active = {
                node: state
                for node, state in result.final_states.items()
                if state.is_active
            }
            assert summary.final_states(trial) == active
            assert summary.flips[trial] == sum(
                1 for event in result.events if event.was_flip
            )

    def test_reference_model_summarised(self):
        graph = _graph()
        seeds = _seeds(graph)
        reference = simulate_batch(
            MFCModel(alpha=2.0), graph, seeds, 6, base_seed=4, record_states=True
        )
        # The oracle is not an MFCModel: it takes the per-trial fallback.
        recorder = MetricsRecorder()
        fallback = simulate_batch(
            ReferenceMFCModel(alpha=2.0),
            graph,
            seeds,
            6,
            base_seed=4,
            record_states=True,
            recorder=recorder,
        )
        assert recorder.metrics.counters.get("mc.batch.fallback.model") == 1
        # The reference simulator and the kernel are bit-identical, so
        # both routes must report the same counts and states.
        assert fallback.infected == reference.infected
        assert fallback.flips == reference.flips
        assert fallback.rounds == reference.rounds
        for trial in range(6):
            assert fallback.final_states(trial) == reference.final_states(trial)

    def test_cache_dir_falls_back(self, tmp_path):
        graph = _graph()
        seeds = _seeds(graph)
        model = MFCModel(alpha=2.0)
        recorder = MetricsRecorder()
        cached = simulate_batch(
            model,
            graph,
            seeds,
            4,
            base_seed=2,
            runtime=RuntimeConfig(cache_dir=tmp_path),
            recorder=recorder,
        )
        counters = recorder.metrics.counters
        assert counters.get("mc.batch.fallback.cache") == 1
        direct = simulate_batch(model, graph, seeds, 4, base_seed=2)
        assert cached.infected == direct.infected
        assert cached.rounds == direct.rounds


class TestEstimateSpread:
    """The fast path must reproduce the legacy aggregation exactly."""

    def test_fast_path_equals_legacy_walk(self):
        graph = _graph()
        seeds = _seeds(graph)
        fast = estimate_spread(MFCModel(alpha=2.2), graph, seeds, trials=10, base_seed=7)
        legacy = estimate_spread(
            ReferenceMFCModel(alpha=2.2), graph, seeds, trials=10, base_seed=7
        )
        # Dataclass equality pins every field to the float: sizes,
        # non-empty-cascade state fractions, flips, rounds.
        assert fast == legacy

    def test_ic_fast_path_equals_legacy_walk(self):
        graph = _graph(rng=9)
        seeds = _seeds(graph)
        fast = estimate_spread(ICModel(), graph, seeds, trials=12, base_seed=5)
        legacy = estimate_spread(
            ReferenceICModel(), graph, seeds, trials=12, base_seed=5
        )
        assert fast == legacy

    def test_cache_dir_keeps_legacy_path(self, tmp_path):
        graph = _graph()
        seeds = _seeds(graph)
        model = MFCModel(alpha=2.0)
        runtime = RuntimeConfig(cache_dir=tmp_path)
        cached = estimate_spread(
            model, graph, seeds, trials=6, base_seed=3, runtime=runtime
        )
        plain = estimate_spread(model, graph, seeds, trials=6, base_seed=3)
        assert cached == plain

    def test_empty_cascade_fractions_stay_zero(self):
        graph = signed_erdos_renyi(20, 0.1, weight_range=(0.0, 0.0), rng=13)
        node = sorted(graph.nodes(), key=repr)[0]
        estimate = estimate_spread(
            MFCModel(alpha=2.0), graph, {node: NodeState.POSITIVE}, trials=5
        )
        # Seeds always stay active, so every cascade has exactly one
        # positive node: fractions are 1/0 and spread is 1.
        assert estimate.mean_infected == 1.0
        assert estimate.mean_positive_fraction == 1.0
        assert estimate.mean_negative_fraction == 0.0
        assert estimate.mean_flips == 0.0


class TestSummaryHelpers:
    def _summary(self, record_states=True):
        graph = _graph()
        seeds = _seeds(graph)
        return simulate_batch(
            MFCModel(alpha=2.0),
            graph,
            seeds,
            4,
            base_seed=1,
            record_states=record_states,
        ), seeds

    def test_state_views_require_record_states(self):
        summary, seeds = self._summary(record_states=False)
        assert summary.states is None
        with pytest.raises(ValueError, match="record_states=True"):
            summary.active_counts()
        with pytest.raises(ValueError, match="record_states=True"):
            summary.final_states(0)

    def test_active_counts_cover_seeds(self):
        summary, seeds = self._summary()
        counts = summary.active_counts()
        for node in seeds:
            assert counts[node] == summary.trials  # seeds never deactivate

    def test_match_counts_against_final_states(self):
        summary, seeds = self._summary()
        observed = summary.final_states(0)
        matches = summary.match_counts(observed)
        totals = summary.match_totals(observed)
        assert totals[0] == len(observed)  # trial 0 matches itself exactly
        assert sum(matches.values()) == sum(totals)

    def test_concat_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            CascadeBatchSummary.concat([])


class TestMetrics:
    def test_fastpath_counters(self):
        graph = _graph()
        seeds = _seeds(graph)
        recorder = MetricsRecorder()
        simulate_batch(
            MFCModel(alpha=2.0), graph, seeds, 4, base_seed=1, recorder=recorder
        )
        counters = recorder.metrics.counters
        assert counters.get("mc.batch.trials") == 4
        assert counters.get("mc.batch.fastpath") == 1
        assert counters.get("kernel.mfc.batch.calls") == 1
        assert counters.get("kernel.mfc.batch.cascades") == 4
        assert counters.get("kernel.mfc.batch.backend.python") == 1

    def test_fallback_counters(self):
        graph = _graph()
        seeds = _seeds(graph)
        recorder = MetricsRecorder()
        simulate_batch(SIRModel(), graph, seeds, 3, base_seed=1, recorder=recorder)
        counters = recorder.metrics.counters
        assert counters.get("mc.batch.fallback") == 1
        assert counters.get("mc.batch.fallback.model") == 1
        assert "mc.batch.fastpath" not in counters


class TestNoNumpy:
    """The batch tier must degrade exactly like the single-cascade tier."""

    def test_numpy_request_falls_back_once(self, monkeypatch):
        _without_numpy(monkeypatch)
        graph = _graph()
        seeds = _seeds(graph)
        model = MFCModel(alpha=2.0, backend="numpy")
        with pytest.warns(RuntimeWarning, match="falling back"):
            degraded = simulate_batch(
                model, graph, seeds, 6, base_seed=2, record_states=True
            )
        reference = simulate_batch(
            MFCModel(alpha=2.0, backend="python"),
            graph,
            seeds,
            6,
            base_seed=2,
            record_states=True,
        )
        assert degraded.infected == reference.infected
        assert degraded.flips == reference.flips
        for trial in range(6):
            assert degraded.final_states(trial) == reference.final_states(trial)
        # Second request: same fallback, but silent.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            simulate_batch(model, graph, seeds, 2, base_seed=2)

    def test_fallback_counter_recorded(self, monkeypatch):
        _without_numpy(monkeypatch)
        graph = _graph()
        seeds = _seeds(graph)
        recorder = MetricsRecorder()
        with using_recorder(recorder):
            with pytest.warns(RuntimeWarning):
                simulate_batch(
                    MFCModel(alpha=2.0, backend="numpy"), graph, seeds, 2, base_seed=1
                )
        assert recorder.metrics.counters.get("kernel.backend.fallback") == 1

    def test_bad_backend_name_rejected(self):
        graph = _graph()
        compiled = compile_graph(graph)
        seeds = _seeds(graph)
        validated = check_seeds_compiled(compiled, seeds)
        trial_seeds = [derive_seed(0, "mfc", trial) for trial in range(2)]
        with pytest.raises(ConfigError, match="fortran"):
            run_mfc_batch(
                compiled,
                validated,
                trial_seeds,
                alpha=2.0,
                allow_flips=True,
                max_rounds=10**9,
                backend="fortran",
            )

    def test_batch_api_runs_on_python_backend(self, monkeypatch):
        _without_numpy(monkeypatch)
        graph = _graph()
        compiled = compile_graph(graph)
        seeds = _seeds(graph)
        validated = check_seeds_compiled(compiled, seeds)
        trial_seeds = [derive_seed(0, "mfc", trial) for trial in range(3)]
        summary = run_mfc_batch(
            compiled,
            validated,
            trial_seeds,
            alpha=2.0,
            allow_flips=True,
            max_rounds=10**9,
            record_states=True,
        )
        assert summary.trials == 3
        assert all(count >= len(seeds) for count in summary.infected)
