#!/usr/bin/env python
"""Measure the observability layer's overhead on the kernel fast path.

``repro.kernel.cascade.run_mfc_compiled`` wraps the bare cascade loop
``_mfc_cascade`` with one ``resolve_recorder`` call and one ``enabled``
branch; all counters are derived post-run only when a recorder is
enabled. This benchmark times three configurations over the exact same
cascade workload (same compiled graph, same per-cascade seeds):

* **baseline** — ``_mfc_cascade`` called directly, the kernel cascade
  with no recorder resolution or calls;
* **null** — ``run_mfc_compiled`` with the default
  :class:`~repro.obs.recorder.NullRecorder` (the production default);
* **metrics** — ``run_mfc_compiled`` under an enabled
  :class:`~repro.obs.metrics.MetricsRecorder` (the opt-in cost, for
  context — not gated).

Each configuration is timed ``--repeats`` times and the *minimum* batch
time is kept (the standard way to strip scheduler noise from a
determinism-friendly workload). The gate: null-recorder overhead over
baseline must stay below ``--max-overhead-pct`` (default 2; CI's
``--tiny`` mode gates at 5 because small boxes are noisy).

Run with:

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py
    PYTHONPATH=src python benchmarks/bench_obs_overhead.py --tiny --max-overhead-pct 5
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.graphs.signed_digraph import SignedDiGraph
from repro.kernel.cascade import _mfc_cascade, run_mfc_compiled
from repro.kernel.compile import compile_graph
from repro.obs import MetricsRecorder
from repro.types import NodeState
from repro.utils.rng import spawn_rng


def build_graph(n: int, m: int, seed: int) -> SignedDiGraph:
    """Random signed digraph with ``n`` nodes and exactly ``m`` edges."""
    rng = spawn_rng(seed, "bench-obs-graph")
    g = SignedDiGraph()
    g.add_nodes(range(n))
    added = 0
    while added < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v or g.has_edge(u, v):
            continue
        sign = 1 if rng.random() < 0.8 else -1
        g.add_edge(u, v, sign, 0.02 + 0.28 * rng.random())
        added += 1
    return g


def time_batch(run_one, cascades: int, repeats: int) -> float:
    """Best-of-``repeats`` wall time for ``cascades`` cascades."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for trial in range(cascades):
            run_one(trial)
        best = min(best, time.perf_counter() - start)
    return best


def bench(n: int, m: int, cascades: int, repeats: int, seed: int, alpha: float) -> dict:
    graph = build_graph(n, m, seed)
    compiled = compile_graph(graph)
    validated = {
        node: (NodeState.POSITIVE if i % 3 else NodeState.NEGATIVE)
        for i, node in enumerate(
            sorted(spawn_rng(seed, "bench-obs-seeds").sample(range(n), 10))
        )
    }
    max_rounds = 10_000

    def baseline(trial: int) -> None:
        _mfc_cascade(
            compiled, validated, spawn_rng(trial, "mfc"), alpha, True, max_rounds
        )

    def null_recorder(trial: int) -> None:
        run_mfc_compiled(
            compiled,
            validated,
            spawn_rng(trial, "mfc"),
            alpha=alpha,
            allow_flips=True,
            max_rounds=max_rounds,
        )

    metrics = MetricsRecorder()

    def metrics_recorder(trial: int) -> None:
        run_mfc_compiled(
            compiled,
            validated,
            spawn_rng(trial, "mfc"),
            alpha=alpha,
            allow_flips=True,
            max_rounds=max_rounds,
            recorder=metrics,
        )

    # Warm up every path once (bytecode caches, allocator) before timing.
    baseline(0), null_recorder(0), metrics_recorder(0)

    base = time_batch(baseline, cascades, repeats)
    null = time_batch(null_recorder, cascades, repeats)
    instrumented = time_batch(metrics_recorder, cascades, repeats)

    return {
        "nodes": n,
        "edges": m,
        "cascades": cascades,
        "repeats": repeats,
        "alpha": alpha,
        "baseline_seconds": base,
        "null_seconds": null,
        "metrics_seconds": instrumented,
        "null_overhead_pct": 100.0 * (null - base) / base,
        "metrics_overhead_pct": 100.0 * (instrumented - base) / base,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cascades", type=int, default=200, help="cascades per batch")
    parser.add_argument("--repeats", type=int, default=5, help="batches; best kept")
    parser.add_argument("--alpha", type=float, default=3.0)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", default="BENCH_obs.json")
    parser.add_argument(
        "--max-overhead-pct",
        type=float,
        default=2.0,
        help="fail (exit 1) if NullRecorder overhead exceeds this",
    )
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="CI smoke mode: one small graph, fewer cascades",
    )
    args = parser.parse_args()

    if args.tiny:
        sizes = [(300, 2_400)]
        cascades = min(args.cascades, 60)
    else:
        sizes = [(500, 5_000), (2_000, 20_000)]
        cascades = args.cascades

    report = {
        "host_cpus": os.cpu_count(),
        "tiny": args.tiny,
        "max_overhead_pct": args.max_overhead_pct,
        "sizes": [],
    }
    worst = float("-inf")
    for n, m in sizes:
        entry = bench(n, m, cascades, args.repeats, args.seed, args.alpha)
        report["sizes"].append(entry)
        worst = max(worst, entry["null_overhead_pct"])
        print(
            "%5d nodes %6d edges: baseline %7.1f casc/s | null %7.1f casc/s "
            "(%+.2f%%) | metrics %7.1f casc/s (%+.2f%%)"
            % (
                n,
                m,
                cascades / entry["baseline_seconds"],
                cascades / entry["null_seconds"],
                entry["null_overhead_pct"],
                cascades / entry["metrics_seconds"],
                entry["metrics_overhead_pct"],
            )
        )

    report["worst_null_overhead_pct"] = worst
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print("wrote %s" % args.out)

    if worst > args.max_overhead_pct:
        print(
            "FAIL: NullRecorder overhead %.2f%% exceeds the %.2f%% gate"
            % (worst, args.max_overhead_pct),
            file=sys.stderr,
        )
        return 1
    print("PASS: worst NullRecorder overhead %.2f%%" % worst)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
