#!/usr/bin/env python
"""Benchmark the numpy kernel backend against the interpreted loops.

The headline workload (``docs/algorithms.md`` §12):

* **Cascades** on a 20k-node / 8M-edge signed digraph (average
  out-degree 400, low per-edge probabilities — an attempts-heavy
  regime). Three single-cascade workloads (MFC with and without flips,
  IC), each returning the full event trace, form the headline suite
  speedup (geometric mean of the per-workload speedups). Every
  workload row is the best of ``--repeats`` per-backend blocks of
  ``--trials`` cascades (block-min timing — single-core hosts under
  memory-subsystem contention swing individual blocks by ±20%). The
  numpy backend is statistical-tier, so the gate here is the
  exact-graph invariant suite (p=1 / p=0), not per-cascade equality.

Backends select cascade execution only; the tree DP has one
implementation and is benchmarked by ``bench_tree_dp.py``.

Results are written as JSON (default ``BENCH_backends.json``).

Run with:

    PYTHONPATH=src python benchmarks/bench_backends.py

``--tiny`` is the CI identity gate: seconds-scale inputs, every
invariant checked, non-zero exit on any violation, no speed assertions
(CI boxes are noisy). With numpy not installed ``--tiny`` exits 0 after
verifying the dispatcher falls back cleanly.
"""

from __future__ import annotations

import argparse
import os
import random
import sys

from _harness import Gate, compiled_input, timed
from repro.kernel.backends import numpy_available, resolve_backend
from repro.kernel.cascade import run_ic_compiled, run_mfc_compiled
from repro.utils.rng import spawn_rng

#: RNG label of every graph this benchmark builds.
GRAPH = "bench-backends-graph"


#: Cascade workload rows; all three make up the headline aggregate.
WORKLOADS = ("mfc_spread", "mfc_no_flips", "ic_spread")


def bench_cascades(
    n: int, m: int, trials: int, repeats: int, seed: int, alpha: float
) -> dict:
    compiled, validated = compiled_input(
        n, m, seed, GRAPH, weight_low=0.0015, weight_span=0.006
    )

    def mfc(backend, trial, allow_flips):
        return run_mfc_compiled(
            compiled,
            validated,
            spawn_rng(trial, "mfc"),
            alpha=alpha,
            allow_flips=allow_flips,
            max_rounds=1_000_000,
            backend=backend,
        )

    def ic(backend, trial):
        return run_ic_compiled(
            compiled,
            validated,
            spawn_rng(trial, "ic"),
            propagate_signs=True,
            backend=backend,
        )

    runners = {
        "mfc_spread": lambda b, t: mfc(b, t, True),
        "mfc_no_flips": lambda b, t: mfc(b, t, False),
        "ic_spread": ic,
    }

    def block(runner, backend):
        infected = 0
        for trial in range(trials):
            infected += len(runner(backend, trial).final_states)
        return infected / trials

    workloads = {}
    for name in WORKLOADS:
        runner = runners[name]
        for backend in ("numpy", "python"):  # warm both (α caches, views)
            runner(backend, 0)
        best = {"numpy": float("inf"), "python": float("inf")}
        mean_infected = {}
        for _ in range(repeats):
            for backend in ("numpy", "python"):
                seconds, mean_infected[backend] = timed(block, runner, backend)
                best[backend] = min(best[backend], seconds)
        workloads[name] = {
            "python": {"seconds": best["python"], "mean_infected": mean_infected["python"]},
            "numpy": {"seconds": best["numpy"], "mean_infected": mean_infected["numpy"]},
            "speedup": best["python"] / best["numpy"],
        }

    # Headline: geometric mean of the per-workload speedups — the
    # standard suite aggregate (each workload weighs equally; a
    # time-total ratio would instead weight rows by their absolute
    # duration).
    product = 1.0
    for w in WORKLOADS:
        product *= workloads[w]["speedup"]
    return {
        "nodes": n,
        "edges": m,
        "trials": trials,
        "block_repeats": repeats,
        "alpha": alpha,
        "workloads": workloads,
        "speedup": product ** (1.0 / len(WORKLOADS)),
    }


def identity_gate(seed: int, check) -> None:
    """Exact-graph invariant suite, reported through ``check(label, ok)``."""
    py = resolve_backend("python")
    nx = resolve_backend("numpy")

    # p=1: every attempt succeeds; reachability/attempts are exact.
    compiled, validated = compiled_input(
        300, 3_000, seed, GRAPH, weight_low=1.0, weight_span=0.0
    )
    rp, attempts_py = py.mfc_cascade(
        compiled, validated, random.Random(1), 1.0, False, 10**9
    )
    rn, attempts_np = nx.mfc_cascade(
        compiled, validated, random.Random(1), 1.0, False, 10**9
    )
    check("mfc p=1 final states equal", rn.final_states == rp.final_states)
    check("mfc p=1 attempt counts equal", attempts_np == attempts_py)
    check("mfc p=1 round counts equal", rn.rounds == rp.rounds)
    rp, attempts_py = py.ic_cascade(compiled, validated, random.Random(2), True)
    rn, attempts_np = nx.ic_cascade(compiled, validated, random.Random(2), True)
    check("ic p=1 final states equal", rn.final_states == rp.final_states)
    check("ic p=1 attempt counts equal", attempts_np == attempts_py)

    # p=0: nothing ever succeeds; seeds only, one round of failures.
    compiled, validated = compiled_input(
        200, 1_000, seed, GRAPH, weight_low=0.0, weight_span=0.0
    )
    rp, attempts_py = py.mfc_cascade(
        compiled, validated, random.Random(3), 3.0, True, 10**9
    )
    rn, attempts_np = nx.mfc_cascade(
        compiled, validated, random.Random(3), 3.0, True, 10**9
    )
    check("mfc p=0 seeds-only spread", rn.final_states == validated)
    check("mfc p=0 attempt counts equal", attempts_np == attempts_py)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--trials", type=int, default=5, help="cascades per timed block"
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="timing repeats (cascade blocks per backend)",
    )
    parser.add_argument("--alpha", type=float, default=1.5)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", default="BENCH_backends.json")
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="CI gate: identity suite only, seconds-scale, non-zero exit on "
        "any invariant violation",
    )
    args = parser.parse_args()

    gate = Gate(width=42)
    if not numpy_available():
        engine = resolve_backend("numpy")  # must fall back, not raise
        print(
            "numpy not installed; dispatcher resolves 'numpy' -> %r. "
            "Nothing to benchmark." % engine.name
        )
        if engine.name != "python":
            gate.failures.append("dispatcher did not fall back to python")
        return gate.finish()

    print("identity gate:")
    identity_gate(args.seed, gate.check)
    if gate.failures:
        return gate.finish()
    print("all invariants hold")
    if args.tiny:
        return 0

    report = {"host_cpus": os.cpu_count(), "identity_failures": gate.failures}
    print(
        "cascades (20k nodes, 8M edges, deg 400; min of %d blocks x %d trials):"
        % (args.repeats, args.trials)
    )
    entry = bench_cascades(
        20_000, 8_000_000, args.trials, args.repeats, args.seed, args.alpha
    )
    report["cascades"] = entry
    for name in WORKLOADS:
        row = entry["workloads"][name]
        print(
            "  %-16s python %6.2fs  numpy %6.2fs  speedup %.2fx  "
            "(mean infected %.0f/%.0f)"
            % (
                name,
                row["python"]["seconds"],
                row["numpy"]["seconds"],
                row["speedup"],
                row["python"]["mean_infected"],
                row["numpy"]["mean_infected"],
            )
        )
    print("  cascade suite speedup (geometric mean): %.2fx" % entry["speedup"])

    return gate.finish(report, args.out)


if __name__ == "__main__":
    sys.exit(main())
