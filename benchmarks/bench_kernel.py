#!/usr/bin/env python
"""Benchmark the CSR cascade kernel against the reference simulator.

For each graph size, runs the same MFC cascade workload through the
reference dict-of-dict simulator (the oracle in
``tests/oracles/cascades.py``; the script puts the repository root on
``sys.path`` to import it) and the CSR-compiled kernel behind
:class:`~repro.diffusion.mfc.MFCModel`, verifies the two are
bit-identical (same events, final states, rounds — they consume the
RNG in the same order), and reports cascades/sec and ns/attempt for
both paths. Results are written as JSON (default ``BENCH_kernel.json``
in the current directory).

Run with:

    PYTHONPATH=src python benchmarks/bench_kernel.py

``--tiny`` runs a seconds-scale smoke configuration meant for CI: it
checks bit-identity on every cascade and exits non-zero on any
mismatch, without asserting anything about speed (CI boxes are noisy).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from repro.diffusion.mfc import MFCModel  # noqa: E402
from repro.graphs.signed_digraph import SignedDiGraph  # noqa: E402
from repro.kernel.cascade import run_mfc_compiled  # noqa: E402
from repro.kernel.compile import compile_graph  # noqa: E402
from repro.types import NodeState  # noqa: E402
from repro.utils.rng import spawn_rng  # noqa: E402
from tests.oracles.cascades import ReferenceMFCModel  # noqa: E402


class CountingRandom(random.Random):
    """A ``random.Random`` that counts ``random()`` draws.

    Each draw is one activation attempt, so seeding this with the exact
    per-trial generator state counts the workload's attempts without
    instrumenting the simulators.
    """

    calls = 0

    def random(self):  # noqa: D102 - inherited semantics
        self.calls += 1
        return super().random()


def build_graph(n: int, m: int, seed: int) -> SignedDiGraph:
    """Random signed digraph with ``n`` nodes and exactly ``m`` edges."""
    rng = spawn_rng(seed, "bench-kernel-graph")
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


def results_identical(a, b) -> bool:
    return (
        a.seeds == b.seeds
        and a.final_states == b.final_states
        and a.events == b.events
        and a.rounds == b.rounds
    )


def bench_size(
    n: int, m: int, trials: int, seed: int, alpha: float, check_all: bool
) -> dict:
    graph = build_graph(n, m, seed)
    seeds = {
        node: (NodeState.POSITIVE if i % 3 else NodeState.NEGATIVE)
        for i, node in enumerate(sorted(spawn_rng(seed, "bench-seeds").sample(range(n), 10)))
    }
    reference = ReferenceMFCModel(alpha=alpha)
    kernel = MFCModel(alpha=alpha)

    compile_start = time.perf_counter()
    compiled = compile_graph(graph)
    compile_seconds = time.perf_counter() - compile_start

    # Count attempts (= RNG draws) by replaying each trial's exact
    # generator state through the kernel with a counting generator.
    validated = dict(seeds)
    attempts = 0
    for trial in range(trials):
        counter = CountingRandom()
        counter.setstate(spawn_rng(trial, reference.name).getstate())
        run_mfc_compiled(
            compiled,
            validated,
            counter,
            alpha=alpha,
            allow_flips=True,
            max_rounds=reference.max_rounds,
        )
        attempts += counter.calls

    start = time.perf_counter()
    reference_results = [reference.run(graph, seeds, rng=t) for t in range(trials)]
    reference_seconds = time.perf_counter() - start

    start = time.perf_counter()
    kernel_results = [kernel.run(graph, seeds, rng=t) for t in range(trials)]
    kernel_seconds = time.perf_counter() - start

    checked = trials if check_all else min(trials, 5)
    mismatches = sum(
        0 if results_identical(reference_results[t], kernel_results[t]) else 1
        for t in range(checked)
    )

    mean_infected = sum(r.num_infected() for r in kernel_results) / trials
    return {
        "nodes": n,
        "edges": m,
        "trials": trials,
        "alpha": alpha,
        "attempts": attempts,
        "mean_infected": mean_infected,
        "compile_seconds": compile_seconds,
        "identity_checked": checked,
        "identity_mismatches": mismatches,
        "reference": {
            "seconds": reference_seconds,
            "cascades_per_sec": trials / reference_seconds,
            "ns_per_attempt": reference_seconds * 1e9 / max(1, attempts),
        },
        "kernel": {
            "seconds": kernel_seconds,
            "cascades_per_sec": trials / kernel_seconds,
            "ns_per_attempt": kernel_seconds * 1e9 / max(1, attempts),
        },
        "speedup": reference_seconds / kernel_seconds,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=50, help="cascades per size")
    parser.add_argument("--alpha", type=float, default=3.0)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", default="BENCH_kernel.json")
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="CI smoke mode: one small graph, bit-identity checked on every "
        "cascade, non-zero exit on mismatch",
    )
    args = parser.parse_args()

    if args.tiny:
        sizes = [(120, 900)]
        trials = min(args.trials, 20)
    else:
        sizes = [(500, 5_000), (2_000, 20_000), (4_000, 40_000)]
        trials = args.trials

    report = {"host_cpus": os.cpu_count(), "tiny": args.tiny, "sizes": []}
    failed = False
    for n, m in sizes:
        entry = bench_size(
            n, m, trials, args.seed, args.alpha, check_all=args.tiny
        )
        report["sizes"].append(entry)
        status = "OK" if entry["identity_mismatches"] == 0 else "MISMATCH"
        if entry["identity_mismatches"]:
            failed = True
        print(
            "%5d nodes %6d edges: reference %8.1f casc/s (%6.0f ns/attempt) | "
            "kernel %8.1f casc/s (%6.0f ns/attempt) | %.2fx | identity %s"
            % (
                n,
                m,
                entry["reference"]["cascades_per_sec"],
                entry["reference"]["ns_per_attempt"],
                entry["kernel"]["cascades_per_sec"],
                entry["kernel"]["ns_per_attempt"],
                entry["speedup"],
                status,
            )
        )

    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print("wrote %s" % args.out)

    if failed:
        print("FAIL: kernel diverged from the reference simulator", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
