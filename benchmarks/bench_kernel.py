#!/usr/bin/env python
"""Benchmark the CSR cascade kernel against the reference simulator.

For each graph size, runs the same MFC cascade workload through the
reference dict-of-dict simulator (the oracle in
``tests/oracles/cascades.py``) and the CSR-compiled kernel behind
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
import os
import random
import sys

from _harness import Gate, random_signed_digraph, seed_set, timed
from repro.diffusion.mfc import MFCModel
from repro.kernel.cascade import run_mfc_compiled
from repro.kernel.compile import compile_graph
from repro.utils.rng import spawn_rng
from tests.oracles.cascades import ReferenceMFCModel


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
    graph = random_signed_digraph(
        n, m, seed, "bench-kernel-graph", weight_low=0.02, weight_span=0.28
    )
    seeds = seed_set(n, seed, "bench-seeds")
    reference = ReferenceMFCModel(alpha=alpha)
    kernel = MFCModel(alpha=alpha)
    compile_seconds, compiled = timed(compile_graph, graph)

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

    def cascades(model):
        return [model.run(graph, seeds, rng=t) for t in range(trials)]

    reference_seconds, reference_results = timed(cascades, reference)
    kernel_seconds, kernel_results = timed(cascades, kernel)

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
    gate = Gate()
    for n, m in sizes:
        entry = bench_size(
            n, m, trials, args.seed, args.alpha, check_all=args.tiny
        )
        report["sizes"].append(entry)
        status = "OK" if entry["identity_mismatches"] == 0 else "MISMATCH"
        if entry["identity_mismatches"]:
            gate.failures.append(
                "kernel diverged from the reference simulator on %d of %d "
                "cascades (%d nodes)"
                % (entry["identity_mismatches"], entry["identity_checked"], n)
            )
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

    return gate.finish(report, args.out)


if __name__ == "__main__":
    sys.exit(main())
