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

The three are timed in ``--repeats`` paired rounds: each round times
one block of ``--cascades`` cascades per configuration, back to back,
rotating which configuration goes first. A configuration's overhead is the *median*
over rounds of its block time divided by the same round's baseline
block. Pairing within a round cancels the host's slow drifts, which
hit both blocks alike, and the median discards the rounds a burst of
other work lands in one block only. (Timing each configuration on its
own and comparing the minima measured the host: on a shared 2-CPU VM
the no-op recorder read anywhere from −23% to +10%.) The gate:
null-recorder overhead over baseline must stay below
``--max-overhead-pct`` (default 2; CI's ``--tiny`` mode gates at 5
because small boxes are noisy).

Run with:

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py
    PYTHONPATH=src python benchmarks/bench_obs_overhead.py --tiny --max-overhead-pct 5
"""

from __future__ import annotations

import argparse
import os
import statistics

from _harness import Gate, random_signed_digraph, seed_set, timed
from repro.kernel.cascade import _mfc_cascade, run_mfc_compiled
from repro.kernel.compile import compile_graph
from repro.obs import MetricsRecorder
from repro.utils.rng import spawn_rng


def paired_rounds(blocks, rounds: int) -> list:
    """Per block, its time in every round.

    Each round times every block once, back to back, starting from
    block ``round % len(blocks)``, so no block always runs first.
    """
    times = [[] for _ in blocks]
    for start in range(rounds):
        for offset in range(len(blocks)):
            index = (start + offset) % len(blocks)
            times[index].append(timed(blocks[index])[0])
    return times


def median_ratio(times, base) -> float:
    """The median over rounds of ``times / base``, paired by round."""
    return statistics.median(t / b for t, b in zip(times, base))


def bench(n: int, m: int, cascades: int, rounds: int, seed: int, alpha: float) -> dict:
    graph = random_signed_digraph(
        n, m, seed, "bench-obs-graph", weight_low=0.02, weight_span=0.28
    )
    compiled = compile_graph(graph)
    validated = seed_set(n, seed, "bench-obs-seeds")
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

    def batch(run_one):
        def block():
            for trial in range(cascades):
                run_one(trial)

        return block

    base, null, instrumented = paired_rounds(
        [batch(baseline), batch(null_recorder), batch(metrics_recorder)], rounds
    )

    return {
        "nodes": n,
        "edges": m,
        "cascades": cascades,
        "rounds": rounds,
        "alpha": alpha,
        "baseline_seconds": statistics.median(base),
        "null_seconds": statistics.median(null),
        "metrics_seconds": statistics.median(instrumented),
        "null_overhead_pct": 100.0 * (median_ratio(null, base) - 1.0),
        "metrics_overhead_pct": 100.0 * (median_ratio(instrumented, base) - 1.0),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cascades", type=int, default=10, help="cascades per block")
    parser.add_argument(
        "--repeats", type=int, default=101, help="paired rounds; the median ratio is kept"
    )
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
        help="CI smoke mode: one small graph, 81 rounds of 5-cascade blocks",
    )
    args = parser.parse_args()

    if args.tiny:
        sizes = [(300, 2_400)]
        cascades, rounds = 5, 81
    else:
        sizes = [(500, 5_000), (2_000, 20_000)]
        cascades, rounds = args.cascades, args.repeats

    report = {
        "host_cpus": os.cpu_count(),
        "tiny": args.tiny,
        "max_overhead_pct": args.max_overhead_pct,
        "sizes": [],
    }
    worst = float("-inf")
    for n, m in sizes:
        entry = bench(n, m, cascades, rounds, args.seed, args.alpha)
        report["sizes"].append(entry)
        worst = max(worst, entry["null_overhead_pct"])
        print(
            "%5d nodes %6d edges: baseline %7.1f casc/s | null %7.1f casc/s "
            "(%+.2f%% paired median) | metrics %7.1f casc/s (%+.2f%%)"
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
    gate = Gate()
    if worst > args.max_overhead_pct:
        gate.failures.append(
            "NullRecorder overhead %.2f%% exceeds the %.2f%% gate"
            % (worst, args.max_overhead_pct)
        )
    status = gate.finish(report, args.out)
    if not status:
        print("PASS: worst NullRecorder overhead %.2f%%" % worst)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
