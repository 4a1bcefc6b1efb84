"""Unit tests for the kernel backend dispatcher and its bugfix satellites.

Everything here runs without numpy installed — the numpy-absent paths
are exercised by stubbing the import machinery, so this module is part
of the pure-python tier-1 surface (the CI no-numpy leg relies on that).
"""

import pickle
import random
import sys
import warnings

import pytest

import repro.kernel.backends as backends
from repro.errors import ConfigError, DynamicProgramError
from repro.graphs.generators.random_graphs import signed_erdos_renyi
from repro.kernel import compile_graph
from repro.kernel.cascade import check_seeds_compiled, run_mfc_compiled
from repro.kernel.tree_dp import _decision_typecode
from repro.obs import MetricsRecorder, using_recorder
from repro.runtime import executor
from repro.runtime.cache import graph_digest, model_digest
from repro.runtime.config import RuntimeConfig
from repro.types import NodeState


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


class TestDefaultAndResolution:
    def test_default_is_python(self):
        assert backends.default_backend_name() == "python"
        assert backends.resolve_backend().name == "python"

    def test_env_var_sets_default(self, monkeypatch):
        monkeypatch.setenv(backends.ENV_VAR, "numpy")
        assert backends.default_backend_name() == "numpy"

    def test_env_var_typo_fails_loudly(self, monkeypatch):
        monkeypatch.setenv(backends.ENV_VAR, "nunpy")
        with pytest.raises(ConfigError):
            backends.default_backend_name()

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError):
            backends.resolve_backend("fortran")

    def test_python_backend_is_bit_tier(self):
        engine = backends.resolve_backend("python")
        assert engine.name == "python"
        assert engine.tier == backends.BIT_IDENTICAL

    def test_instances_are_cached(self):
        assert backends.resolve_backend("python") is backends.resolve_backend(
            "python"
        )


class TestNumpyAbsent:
    def test_available_backends_shrink(self, monkeypatch):
        _without_numpy(monkeypatch)
        assert backends.numpy_available() is False

    def test_numpy_request_falls_back_with_one_warning(self, monkeypatch):
        _without_numpy(monkeypatch)
        with pytest.warns(RuntimeWarning, match="falling back"):
            engine = backends.resolve_backend("numpy")
        assert engine.name == "python"
        # Second request: same fallback, but silent.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert backends.resolve_backend("numpy").name == "python"

    def test_fallback_increments_counter(self, monkeypatch):
        _without_numpy(monkeypatch)
        recorder = MetricsRecorder()
        with using_recorder(recorder):
            with pytest.warns(RuntimeWarning):
                backends.resolve_backend("numpy")
        assert recorder.metrics.counters.get("kernel.backend.fallback") == 1

    def test_auto_quietly_picks_python(self, monkeypatch):
        _without_numpy(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert backends.resolve_backend("auto").name == "python"

    def test_cascade_still_runs_on_fallback(self, monkeypatch):
        _without_numpy(monkeypatch)
        graph = signed_erdos_renyi(20, 0.2, weight_range=(0.5, 1.0), rng=3)
        compiled = compile_graph(graph)
        node = sorted(graph.nodes(), key=repr)[0]
        validated = check_seeds_compiled(compiled, {node: NodeState.POSITIVE})
        with pytest.warns(RuntimeWarning):
            result = run_mfc_compiled(
                compiled,
                validated,
                random.Random(1),
                alpha=3.0,
                allow_flips=True,
                max_rounds=10**9,
                backend="numpy",
            )
        assert node in result.final_states


class TestDigestForking:
    """Statistical backends fork cache keys; bit-tier selections do not."""

    def test_explicit_python_keeps_default_keys(self):
        from repro.diffusion.mfc import MFCModel

        assert model_digest(MFCModel()) == model_digest(MFCModel(backend="python"))

    def test_numpy_absent_resolves_to_bit_tier_keys(self, monkeypatch):
        from repro.diffusion.mfc import MFCModel

        _without_numpy(monkeypatch)
        with pytest.warns(RuntimeWarning):
            forked = model_digest(MFCModel(backend="numpy"))
        assert forked == model_digest(MFCModel())


class TestDecisionTypecodeGuard:
    """array('h') decision rows were a silent overflow away from garbage."""

    def test_small_caps_pack_into_shorts(self):
        from array import array

        code = _decision_typecode(100)
        assert array(code).itemsize * 8 >= 9  # holds 2*100+1

    def test_widens_before_overflowing(self):
        # 2*cap+1 beyond int16 must widen instead of wrapping negative.
        code = _decision_typecode(20_000)
        from array import array

        assert array(code).itemsize >= 4
        huge = _decision_typecode((1 << 40))
        assert array(huge).itemsize == 8

    def test_raises_past_q_range(self):
        with pytest.raises(DynamicProgramError):
            _decision_typecode(1 << 63)


class TestPicklableProbe:
    def test_narrow_exceptions_only(self):
        class Boom:
            def __reduce__(self):
                raise OSError("disk on fire")

        with pytest.raises(OSError):
            executor._probe_picklable(Boom())

    def test_unpicklable_returns_false(self):
        assert executor._probe_picklable(lambda: None) is False
        assert executor._probe_picklable(42) is True

    def test_payload_probe_memoized_by_identity(self):
        calls = []

        class Counting:
            def __reduce__(self):
                calls.append(1)
                return (dict, ())

        payload = Counting()
        executor._PICKLE_PROBE_MEMO.clear()
        assert executor._picklable(sum, payload, [1, 2])
        assert executor._picklable(sum, payload, [3, 4])
        assert len(calls) == 1  # second call hit the identity memo

    def test_memo_verifies_identity_not_just_id(self):
        executor._PICKLE_PROBE_MEMO.clear()
        payload = (1, 2, 3)
        assert executor._picklable(sum, payload, [])
        # Forge an entry under a different object with the same id slot:
        # a stale or recycled entry must be ignored, not trusted.
        (key,) = [k for k in executor._PICKLE_PROBE_MEMO]
        executor._PICKLE_PROBE_MEMO[key] = (object(), False)
        assert executor._picklable(sum, payload, []) is True

    def test_run_trials_records_pickle_fallback(self):
        recorder = MetricsRecorder()
        config = RuntimeConfig(workers=2)
        outcome = executor.run_trials(
            lambda payload, spec: spec,  # lambdas cannot pickle
            None,
            [1, 2, 3],
            config=config,
            recorder=recorder,
        )
        assert outcome.results == [1, 2, 3]
        assert outcome.report.fallback_reason == "inputs not picklable"
        assert recorder.metrics.counters.get("runtime.pickle_fallback") == 1


class TestGraphDigestWarning:
    def test_real_graph_stays_silent(self):
        graph = signed_erdos_renyi(10, 0.2, rng=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            graph_digest(graph)
            graph_digest(graph)


class TestRecordEventsToggle:
    """Single cascades always carry the full trace, so an enabled
    recorder reports the trace-derived counters.

    Runs on the python backend so it is part of the no-numpy tier-1
    surface.
    """

    def _compiled(self):
        graph = signed_erdos_renyi(40, 0.25, weight_range=(0.4, 0.9), rng=7)
        compiled = compile_graph(graph)
        nodes = sorted(graph.nodes(), key=repr)[:3]
        validated = check_seeds_compiled(
            compiled,
            {
                node: NodeState.POSITIVE if i % 2 else NodeState.NEGATIVE
                for i, node in enumerate(nodes)
            },
        )
        return compiled, validated

    def test_recorder_still_counts_traced_runs(self):
        compiled, validated = self._compiled()
        recorder = MetricsRecorder()
        with using_recorder(recorder):
            run_mfc_compiled(
                compiled, validated, random.Random(5), 2.0, True, 10**9
            )
        assert "kernel.mfc.activations" in recorder.metrics.counters
