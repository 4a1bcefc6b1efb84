#!/usr/bin/env python
"""Benchmark the batched Monte-Carlo tier against per-trial dispatch.

The workload is the library's actual Monte-Carlo shape: T independent
cascades from one seed assignment on a 20k-node / 200k-edge signed
digraph (average out-degree 10, moderate per-edge probabilities). Two
executions of the same T trials are timed per workload:

* **per-trial** — T separate one-trial ``run_*_batch`` calls on the
  numpy backend (per-trial dispatch: one call, one state matrix and
  one RNG spin-up per trial, no event trace);
* **batched** — one ``run_*_batch`` call sweeping all T trials as
  ``(T, n)`` matrices with a single SFC64 stream per round.

Every row is the best of ``--repeats`` per-execution blocks (block-min
timing); the headline is the geometric mean of the per-workload
speedups, recorded but not asserted. The batched python tier is also
timed for context — it runs the single cascade's loop per trial and
skips only the event decoding.

Results are written as JSON (default ``BENCH_mc_batch.json``).

Run with:

    PYTHONPATH=src python benchmarks/bench_mc_batch.py

``--tiny`` is the CI identity gate: seconds-scale inputs, non-zero exit
on any violation, no speed assertions (CI boxes are noisy). It checks
that the batched *python* tier is bit-identical to ``simulate_many``
(counts, flips, rounds and final states, trial by trial) and that the
batched *numpy* tier holds the statistical-tier invariants (exact
agreement under p=1 / p=0, mean spread within tolerance). With numpy
not installed ``--tiny`` exits 0 after verifying the bit-identity half
and the clean dispatcher fallback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.diffusion.ic import ICModel
from repro.diffusion.mfc import MFCModel
from repro.diffusion.monte_carlo import simulate_batch, simulate_many
from repro.graphs.signed_digraph import SignedDiGraph
from repro.kernel.backends import numpy_available, resolve_backend
from repro.kernel.batch import run_ic_batch, run_mfc_batch
from repro.kernel.cascade import check_seeds_compiled
from repro.kernel.compile import compile_graph
from repro.types import NodeState
from repro.utils.rng import derive_seed, spawn_rng


def build_cascade_graph(
    n: int, m: int, seed: int, weight_low: float, weight_span: float
) -> SignedDiGraph:
    """Random signed digraph with exactly ``m`` edges."""
    rng = spawn_rng(seed, "bench-mc-batch-graph")
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


WORKLOADS = ("mfc_batch", "mfc_no_flips_batch", "ic_batch")


def bench_batched(
    n: int, m: int, trials: int, repeats: int, seed: int, alpha: float
) -> dict:
    graph = build_cascade_graph(n, m, seed, weight_low=0.03, weight_span=0.10)
    compiled = compile_graph(graph)
    validated = check_seeds_compiled(compiled, bench_seeds(n, seed))
    mfc_seeds = [derive_seed(seed, "mfc", trial) for trial in range(trials)]
    ic_seeds = [derive_seed(seed, "ic", trial) for trial in range(trials)]

    def per_trial_mfc(backend, allow_flips):
        infected = 0
        for trial_seed in mfc_seeds:
            summary = run_mfc_batch(
                compiled,
                validated,
                [trial_seed],
                alpha=alpha,
                allow_flips=allow_flips,
                max_rounds=1_000_000,
                backend=backend,
            )
            infected += summary.infected[0]
        return infected / trials

    def per_trial_ic(backend):
        infected = 0
        for trial_seed in ic_seeds:
            summary = run_ic_batch(
                compiled, validated, [trial_seed], propagate_signs=True, backend=backend
            )
            infected += summary.infected[0]
        return infected / trials

    def batched_mfc(backend, allow_flips):
        summary = run_mfc_batch(
            compiled,
            validated,
            mfc_seeds,
            alpha=alpha,
            allow_flips=allow_flips,
            max_rounds=1_000_000,
            backend=backend,
        )
        return sum(summary.infected) / trials

    def batched_ic(backend):
        summary = run_ic_batch(
            compiled, validated, ic_seeds, propagate_signs=True, backend=backend
        )
        return sum(summary.infected) / trials

    runners = {
        "mfc_batch": {
            "per_trial": lambda b: per_trial_mfc(b, True),
            "batched": lambda b: batched_mfc(b, True),
        },
        "mfc_no_flips_batch": {
            "per_trial": lambda b: per_trial_mfc(b, False),
            "batched": lambda b: batched_mfc(b, False),
        },
        "ic_batch": {
            "per_trial": lambda b: per_trial_ic(b),
            "batched": lambda b: batched_ic(b),
        },
    }

    def block(runner, backend):
        start = time.perf_counter()
        mean_infected = runner(backend)
        return time.perf_counter() - start, mean_infected

    workloads = {}
    for name in WORKLOADS:
        pair = runners[name]
        # Warm every execution once (α caches, ndarray views, scratch).
        for mode in ("per_trial", "batched"):
            pair[mode]("numpy")
        pair["batched"]("python")
        best = {
            "per_trial_numpy": float("inf"),
            "batched_numpy": float("inf"),
            "batched_python": float("inf"),
        }
        mean_infected = {}
        for _ in range(repeats):
            for key, runner, backend in (
                ("per_trial_numpy", pair["per_trial"], "numpy"),
                ("batched_numpy", pair["batched"], "numpy"),
                ("batched_python", pair["batched"], "python"),
            ):
                seconds, mean_infected[key] = block(runner, backend)
                best[key] = min(best[key], seconds)
        workloads[name] = {
            key: {"seconds": best[key], "mean_infected": mean_infected[key]}
            for key in best
        }
        workloads[name]["speedup"] = (
            best["per_trial_numpy"] / best["batched_numpy"]
        )

    # Headline: geometric mean of batched-vs-per-trial numpy speedups
    # (each workload weighs equally, matching the backends bench).
    product = 1.0
    for name in WORKLOADS:
        product *= workloads[name]["speedup"]
    return {
        "nodes": n,
        "edges": m,
        "trials": trials,
        "block_repeats": repeats,
        "alpha": alpha,
        "workloads": workloads,
        "speedup": product ** (1.0 / len(WORKLOADS)),
    }


def bit_identity_gate(seed: int, check) -> None:
    """Batched python tier vs ``simulate_many``, to the bit (no numpy)."""
    graph = build_cascade_graph(250, 2_000, seed, weight_low=0.05, weight_span=0.25)
    seeds = bench_seeds(250, seed)
    for model, label in (
        (MFCModel(alpha=2.0, backend="python"), "mfc"),
        (ICModel(backend="python"), "ic"),
    ):
        trials = 8
        results = simulate_many(model, graph, seeds, trials, base_seed=seed)
        summary = simulate_batch(
            model, graph, seeds, trials, base_seed=seed, record_states=True
        )
        check(
            "%s batched-python counts bit-identical" % label,
            summary.infected == [len(r.final_states) for r in results]
            and summary.rounds == [r.rounds for r in results]
            and summary.flips
            == [sum(1 for e in r.events if e.was_flip) for r in results],
        )
        check(
            "%s batched-python states bit-identical" % label,
            all(
                summary.final_states(t) == results[t].final_states
                for t in range(trials)
            ),
        )


def numpy_identity_gate(seed: int, check) -> None:
    """Statistical-tier invariants of the batched numpy sweep."""
    trial_seeds = [derive_seed(seed, "gate", trial) for trial in range(8)]

    # p=1 (allow_flips=False): every per-trial outcome is topology-fixed.
    graph = build_cascade_graph(300, 3_000, seed, weight_low=1.0, weight_span=0.0)
    compiled = compile_graph(graph)
    validated = check_seeds_compiled(compiled, bench_seeds(300, seed))
    py = run_mfc_batch(
        compiled, validated, trial_seeds, alpha=1.0, allow_flips=False,
        max_rounds=10**9, backend="python", record_states=True,
    )
    nx = run_mfc_batch(
        compiled, validated, trial_seeds, alpha=1.0, allow_flips=False,
        max_rounds=10**9, backend="numpy", record_states=True,
    )
    check(
        "mfc batch p=1 per-trial counts equal",
        nx.infected == py.infected
        and nx.rounds == py.rounds
        and nx.attempts == py.attempts,
    )
    check(
        "mfc batch p=1 final states equal",
        all(nx.final_states(t) == py.final_states(t) for t in range(8)),
    )
    pi = run_ic_batch(
        compiled, validated, trial_seeds, propagate_signs=True,
        backend="python", record_states=True,
    )
    ni = run_ic_batch(
        compiled, validated, trial_seeds, propagate_signs=True,
        backend="numpy", record_states=True,
    )
    check(
        "ic batch p=1 per-trial counts equal",
        ni.infected == pi.infected and ni.attempts == pi.attempts,
    )

    # p=0: seeds only, identical attempt accounting.
    graph = build_cascade_graph(200, 1_000, seed, weight_low=0.0, weight_span=0.0)
    compiled = compile_graph(graph)
    validated = check_seeds_compiled(compiled, bench_seeds(200, seed))
    py = run_mfc_batch(
        compiled, validated, trial_seeds, alpha=3.0, allow_flips=True,
        max_rounds=10**9, backend="python", record_states=True,
    )
    nx = run_mfc_batch(
        compiled, validated, trial_seeds, alpha=3.0, allow_flips=True,
        max_rounds=10**9, backend="numpy", record_states=True,
    )
    check(
        "mfc batch p=0 seeds-only spread",
        all(nx.final_states(t) == validated for t in range(8))
        and nx.attempts == py.attempts,
    )

    # Random weights: batched tiers agree in distribution.
    graph = build_cascade_graph(400, 4_000, seed, weight_low=0.05, weight_span=0.25)
    compiled = compile_graph(graph)
    validated = check_seeds_compiled(compiled, bench_seeds(400, seed))
    many = [derive_seed(seed, "dist", trial) for trial in range(40)]
    mean_py = sum(
        run_mfc_batch(
            compiled, validated, many, alpha=2.0, allow_flips=True,
            max_rounds=10**9, backend="python",
        ).infected
    ) / len(many)
    mean_np = sum(
        run_mfc_batch(
            compiled, validated, many, alpha=2.0, allow_flips=True,
            max_rounds=10**9, backend="numpy",
        ).infected
    ) / len(many)
    check(
        "mfc batch mean spread within tolerance",
        abs(mean_py - mean_np) <= max(4.0, 0.2 * mean_py),
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--trials", type=int, default=32, help="cascades per timed batch"
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="timing repeats per execution"
    )
    parser.add_argument("--alpha", type=float, default=1.5)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", default="BENCH_mc_batch.json")
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="CI gate: identity suites only, seconds-scale, non-zero exit "
        "on any violation",
    )
    args = parser.parse_args()

    failures = []

    def check(label, ok):
        print("  %-46s %s" % (label, "OK" if ok else "FAIL"))
        if not ok:
            failures.append(label)

    print("bit-identity gate (batched python vs simulate_many):")
    bit_identity_gate(args.seed, check)

    if not numpy_available():
        engine = resolve_backend("numpy")  # must fall back, not raise
        print(
            "numpy not installed; dispatcher resolves 'numpy' -> %r. "
            "Nothing to benchmark." % engine.name
        )
        if engine.name != "python":
            failures.append("numpy fallback")
        return 1 if failures else 0

    print("statistical-tier gate (batched numpy):")
    numpy_identity_gate(args.seed, check)
    if args.tiny:
        if failures:
            print("FAILED: %d invariant violation(s)" % len(failures))
            return 1
        print("all invariants hold")
        return 0

    report = {"host_cpus": os.cpu_count(), "identity_failures": failures}
    print(
        "batched trials (20k nodes, 200k edges, deg 10; min of %d blocks "
        "x %d trials):" % (args.repeats, args.trials)
    )
    entry = bench_batched(
        20_000, 200_000, args.trials, args.repeats, args.seed, args.alpha
    )
    report["batched"] = entry
    for name in WORKLOADS:
        row = entry["workloads"][name]
        print(
            "  %-20s per-trial-np %6.2fs  batched-np %6.2fs  "
            "batched-py %6.2fs  speedup %.2fx  (mean infected %.0f/%.0f)"
            % (
                name,
                row["per_trial_numpy"]["seconds"],
                row["batched_numpy"]["seconds"],
                row["batched_python"]["seconds"],
                row["speedup"],
                row["per_trial_numpy"]["mean_infected"],
                row["batched_numpy"]["mean_infected"],
            )
        )
    print(
        "  batched-vs-per-trial suite speedup (geometric mean): %.2fx"
        % entry["speedup"]
    )

    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("wrote %s" % args.out)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
