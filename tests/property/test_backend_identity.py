"""python-vs-numpy backend equivalence gates (``docs/algorithms.md`` §12).

The numpy cascade backend is *statistical*-tier: its frontier-batched
rounds consume the RNG in a different order than the reference stream,
so draw-for-draw equality is off the table by design. What must hold
instead — and what this module pins — are the exact-graph invariants
that do not depend on the draw order:

* under ``p = 1`` every attempt succeeds, so the reachable set, the
  per-node final states, the attempt accounting and the round count are
  fully determined by the topology — both backends must agree exactly;
* under ``p = 0`` nothing ever succeeds — seeds only, and exactly one
  round of (failed) attempts from them;
* Monte-Carlo spread estimates must agree in distribution; the mean
  infected count over a trial batch is compared within a tolerance far
  wider than the standard error of the batch.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

np = pytest.importorskip("numpy")

from repro.graphs.generators.random_graphs import (
    signed_erdos_renyi,
    signed_preferential_attachment,
)
from repro.kernel import compile_graph, run_ic_compiled, run_mfc_compiled
from repro.kernel.backends import resolve_backend
from repro.kernel.cascade import check_seeds_compiled
from repro.types import NodeState
from repro.utils.rng import derive_seed, spawn_rng


def _seeds(graph, rng, count=3):
    nodes = sorted(graph.nodes(), key=repr)[:count]
    return {
        node: NodeState.POSITIVE if i % 2 == 0 else NodeState.NEGATIVE
        for i, node in enumerate(nodes)
    }


def _saturated_graphs():
    """Graphs whose every weight is 1.0 — the ``p = 1`` regime."""
    yield signed_erdos_renyi(
        50, 0.08, positive_probability=0.7, weight_range=(1.0, 1.0), rng=11
    )
    yield signed_erdos_renyi(
        80, 0.04, positive_probability=0.3, weight_range=(1.0, 1.0), rng=12
    )
    yield signed_preferential_attachment(
        60, out_degree=3, positive_probability=0.8, weight_range=(1.0, 1.0), rng=13
    )


def _dead_graphs():
    """Graphs whose every weight is 0.0 — the ``p = 0`` regime."""
    yield signed_erdos_renyi(
        40, 0.10, positive_probability=0.6, weight_range=(0.0, 0.0), rng=21
    )
    yield signed_preferential_attachment(
        50, out_degree=2, positive_probability=0.4, weight_range=(0.0, 0.0), rng=22
    )


class TestExactGraphInvariants:
    """Deterministic regimes where both tiers must agree exactly."""

    @pytest.mark.parametrize("graph_index", range(3))
    def test_mfc_p1_reachability_and_attempts(self, graph_index):
        graph = list(_saturated_graphs())[graph_index]
        compiled = compile_graph(graph)
        validated = check_seeds_compiled(compiled, _seeds(graph, None))
        py = resolve_backend("python")
        nx = resolve_backend("numpy")
        # allow_flips=False keeps p=1 MFC fully topology-determined
        # (flip chains under p=1 would re-introduce order sensitivity).
        rp, tried = py.mfc_cascade(
            compiled, validated, random.Random(5), 1.0, False, 10**9
        )
        rn, attempts = nx.mfc_cascade(
            compiled, validated, random.Random(5), 1.0, False, 10**9
        )
        assert rn.final_states == rp.final_states
        assert set(rn.final_states) == set(rp.final_states)
        assert attempts == sum(tried)
        assert rn.rounds == rp.rounds

    @pytest.mark.parametrize("graph_index", range(3))
    def test_ic_p1_reachability_and_attempts(self, graph_index):
        graph = list(_saturated_graphs())[graph_index]
        compiled = compile_graph(graph)
        validated = check_seeds_compiled(compiled, _seeds(graph, None))
        py = resolve_backend("python")
        nx = resolve_backend("numpy")
        rp, tried = py.ic_cascade(compiled, validated, random.Random(6), True)
        rn, attempts = nx.ic_cascade(compiled, validated, random.Random(6), True)
        assert rn.final_states == rp.final_states
        assert attempts == sum(tried)
        assert rn.rounds == rp.rounds

    @pytest.mark.parametrize("graph_index", range(2))
    def test_p0_nothing_spreads(self, graph_index):
        graph = list(_dead_graphs())[graph_index]
        compiled = compile_graph(graph)
        validated = check_seeds_compiled(compiled, _seeds(graph, None))
        py = resolve_backend("python")
        nx = resolve_backend("numpy")
        rp, tried = py.mfc_cascade(
            compiled, validated, random.Random(7), 3.0, True, 10**9
        )
        rn, attempts = nx.mfc_cascade(
            compiled, validated, random.Random(7), 3.0, True, 10**9
        )
        assert rn.final_states == validated
        assert rp.final_states == validated
        assert attempts == sum(tried)
        assert rn.rounds == rp.rounds

    def test_dispatch_wrappers_agree_with_backends(self):
        """`run_*_compiled(backend=...)` routes to the engine it names."""
        graph = signed_erdos_renyi(40, 0.1, weight_range=(1.0, 1.0), rng=31)
        compiled = compile_graph(graph)
        validated = check_seeds_compiled(compiled, _seeds(graph, None))
        via_mfc = run_mfc_compiled(
            compiled, validated, random.Random(1), 1.0, False, 10**9, backend="numpy"
        )
        via_ic = run_ic_compiled(
            compiled, validated, random.Random(1), True, backend="numpy"
        )
        direct = resolve_backend("numpy")
        assert (
            via_mfc.final_states
            == direct.mfc_cascade(
                compiled, validated, random.Random(1), 1.0, False, 10**9
            )[0].final_states
        )
        assert (
            via_ic.final_states
            == direct.ic_cascade(compiled, validated, random.Random(1), True)[
                0
            ].final_states
        )

    def test_trace_free_runs_match_recorded_runs(self):
        """`record_events=False` changes the trace, never the cascade.

        The numpy backend derives its bit generator deterministically
        from the caller's `random.Random`, so the same seed replays the
        same cascade — with and without event materialisation.
        """
        graph = signed_erdos_renyi(60, 0.15, weight_range=(0.3, 0.9), rng=41)
        compiled = compile_graph(graph)
        validated = check_seeds_compiled(compiled, _seeds(graph, None))
        for backend in ("python", "numpy"):
            recorded = run_mfc_compiled(
                compiled, validated, random.Random(9), 2.0, True, 10**9,
                backend=backend,
            )
            bare = run_mfc_compiled(
                compiled, validated, random.Random(9), 2.0, True, 10**9,
                backend=backend, record_events=False,
            )
            assert bare.events == []
            assert bare.final_states == recorded.final_states
            assert bare.rounds == recorded.rounds
            recorded_ic = run_ic_compiled(
                compiled, validated, random.Random(10), True, backend=backend
            )
            bare_ic = run_ic_compiled(
                compiled, validated, random.Random(10), True, backend=backend,
                record_events=False,
            )
            assert bare_ic.events == []
            assert bare_ic.final_states == recorded_ic.final_states
            assert bare_ic.rounds == recorded_ic.rounds


class TestSpreadDistribution:
    """Monte-Carlo estimates must agree in distribution across tiers."""

    @given(st.integers(min_value=0, max_value=1_000))
    @settings(max_examples=8, deadline=None)
    def test_mean_spread_within_tolerance(self, base_seed):
        graph = signed_erdos_renyi(
            120, 0.05, positive_probability=0.7, weight_range=(0.1, 0.6), rng=41
        )
        compiled = compile_graph(graph)
        validated = check_seeds_compiled(compiled, _seeds(graph, None))
        trials = 40

        def mean_spread(backend):
            total = 0
            for trial in range(trials):
                result = run_mfc_compiled(
                    compiled,
                    validated,
                    spawn_rng(derive_seed(base_seed, "spread", trial)),
                    alpha=2.0,
                    allow_flips=True,
                    max_rounds=10**9,
                    backend=backend,
                )
                total += len(result.final_states)
            return total / trials

        mean_py = mean_spread("python")
        mean_np = mean_spread("numpy")
        # Means over 40 cascades on this workload have a standard error
        # of ~1 node; 20% relative (floor 4 nodes) is many sigmas wide
        # while still catching any systematic probability distortion.
        assert abs(mean_py - mean_np) <= max(4.0, 0.2 * mean_py)
