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
import json
import os
import random
import sys
import time

from repro.graphs.signed_digraph import SignedDiGraph
from repro.kernel.backends import numpy_available, resolve_backend
from repro.kernel.cascade import check_seeds_compiled, run_ic_compiled, run_mfc_compiled
from repro.kernel.compile import compile_graph
from repro.types import NodeState
from repro.utils.rng import spawn_rng


def build_cascade_graph(
    n: int, m: int, seed: int, weight_low: float, weight_span: float
) -> SignedDiGraph:
    """Random signed digraph with exactly ``m`` edges and low weights."""
    rng = spawn_rng(seed, "bench-backends-graph")
    g = SignedDiGraph()
    g.add_nodes(range(n))
    added = 0
    while added < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v or g.has_edge(u, v):
            continue
        sign = 1 if rng.random() < 0.8 else -1
        g.add_edge(u, v, sign, weight_low + weight_span * rng.random())
        added += 1
    return g


def bench_seeds(n: int, seed: int) -> dict:
    return {
        node: (NodeState.POSITIVE if i % 3 else NodeState.NEGATIVE)
        for i, node in enumerate(
            sorted(spawn_rng(seed, "bench-seeds").sample(range(n), 10))
        )
    }


#: Cascade workload rows; all three make up the headline aggregate.
WORKLOADS = ("mfc_spread", "mfc_no_flips", "ic_spread")


def bench_cascades(
    n: int, m: int, trials: int, repeats: int, seed: int, alpha: float
) -> dict:
    graph = build_cascade_graph(n, m, seed, weight_low=0.0015, weight_span=0.006)
    compiled = compile_graph(graph)
    validated = check_seeds_compiled(compiled, bench_seeds(n, seed))

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
        start = time.perf_counter()
        infected = 0
        for trial in range(trials):
            infected += len(runner(backend, trial).final_states)
        return time.perf_counter() - start, infected / trials

    workloads = {}
    for name in WORKLOADS:
        runner = runners[name]
        for backend in ("numpy", "python"):  # warm both (α caches, views)
            runner(backend, 0)
        best = {"numpy": float("inf"), "python": float("inf")}
        mean_infected = {}
        for _ in range(repeats):
            for backend in ("numpy", "python"):
                seconds, mean_infected[backend] = block(runner, backend)
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


def identity_gate(seed: int) -> list:
    """Exact-graph invariant suite; returns a list of failure strings."""
    failures = []
    py = resolve_backend("python")
    nx = resolve_backend("numpy")

    def check(label, ok):
        print("  %-42s %s" % (label, "OK" if ok else "FAIL"))
        if not ok:
            failures.append(label)

    # p=1: every attempt succeeds; reachability/attempts are exact.
    graph = build_cascade_graph(300, 3_000, seed, weight_low=1.0, weight_span=0.0)
    compiled = compile_graph(graph)
    validated = check_seeds_compiled(compiled, bench_seeds(300, seed))
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
    graph = build_cascade_graph(200, 1_000, seed, weight_low=0.0, weight_span=0.0)
    compiled = compile_graph(graph)
    validated = check_seeds_compiled(compiled, bench_seeds(200, seed))
    rp, attempts_py = py.mfc_cascade(
        compiled, validated, random.Random(3), 3.0, True, 10**9
    )
    rn, attempts_np = nx.mfc_cascade(
        compiled, validated, random.Random(3), 3.0, True, 10**9
    )
    check("mfc p=0 seeds-only spread", rn.final_states == validated)
    check("mfc p=0 attempt counts equal", attempts_np == attempts_py)
    return failures


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

    if not numpy_available():
        engine = resolve_backend("numpy")  # must fall back, not raise
        print(
            "numpy not installed; dispatcher resolves 'numpy' -> %r. "
            "Nothing to benchmark." % engine.name
        )
        return 0 if engine.name == "python" else 1

    print("identity gate:")
    failures = identity_gate(args.seed)
    if args.tiny:
        if failures:
            print("FAILED: %d invariant violation(s)" % len(failures))
            return 1
        print("all invariants hold")
        return 0

    report = {"host_cpus": os.cpu_count(), "identity_failures": failures}
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

    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("wrote %s" % args.out)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
