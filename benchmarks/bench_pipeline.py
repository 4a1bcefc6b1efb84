#!/usr/bin/env python
"""Benchmark the staged detection engine against the sequential reference.

Builds a synthetic infected snapshot of many independent components
(random cascade trees plus consistent intra-component extra edges),
then:

1. **identity** — asserts the engine (serial, ``workers=4`` parallel,
   and cache-warm) is bit-identical to the frozen pre-refactor
   implementation in ``tests/oracles/rid_reference.py``, in both β mode
   and budget mode — results, and the serial runs' per-tree ``k``,
   ``score``, ``penalized_objective`` and initiators (``scanned_k`` in
   budget mode only: β mode scans no budget) — exiting non-zero on any
   mismatch;
2. **timing** — measures a single β-mode detection and a budget sweep.
   The sweep is the headline: the reference recomputes every tree's
   ``OPT`` curve for every budget, while the engine's content-addressed
   artifact cache (curve keys exclude the budget) pays for each tree's
   DP exactly once across the whole sweep.

Results are written as JSON (default ``BENCH_pipeline.json`` in the
current directory). Run with:

    PYTHONPATH=src python benchmarks/bench_pipeline.py

``--tiny`` runs a seconds-scale smoke configuration meant for CI: full
identity checks, no assertions about speed (CI boxes are noisy).
"""

from __future__ import annotations

import argparse

from _harness import Gate, best_of, results_equal
from repro.core.rid import RID, RIDConfig
from repro.graphs.signed_digraph import SignedDiGraph
from repro.runtime.config import RuntimeConfig
from repro.types import NodeState
from repro.utils.rng import spawn_rng
from tests.oracles.rid_reference import (
    reference_detect,
    reference_detect_with_budget,
)


def build_snapshot(components: int, size: int, seed: int) -> SignedDiGraph:
    """A fully-infected snapshot of ``components`` disjoint components.

    Each component is a random cascade tree of ``size`` nodes (parent
    chosen uniformly among earlier nodes, random sign, random weight)
    with node states propagated consistently from a random root state,
    plus a few extra sign-consistent intra-component edges so components
    are not already trees. Node ids are ints (``component * 10**6 +
    index``) so every stage artifact is disk-cacheable.
    """
    rng = spawn_rng(seed, "bench-pipeline-snapshot")
    g = SignedDiGraph(name=f"synthetic-{components}x{size}")
    for c in range(components):
        base = c * 10**6
        states = {base: 1 if rng.random() < 0.5 else -1}
        g.add_node(base)
        for i in range(1, size):
            node = base + i
            parent = base + rng.randrange(i)
            sign = 1 if rng.random() < 0.7 else -1
            states[node] = states[parent] * sign
            g.add_edge(parent, node, sign, round(rng.uniform(0.05, 0.95), 6))
        for _ in range(max(2, size // 4)):
            u = base + rng.randrange(size)
            v = base + rng.randrange(size)
            if u == v or g.has_edge(u, v):
                continue
            # Keep the extra link sign-consistent so pruning retains it.
            g.add_edge(u, v, states[u] * states[v], round(rng.uniform(0.05, 0.95), 6))
        g.set_states(
            {
                node: NodeState.POSITIVE if s > 0 else NodeState.NEGATIVE
                for node, s in states.items()
            }
        )
    return g


def selections_equal(actual, expected, budgeted: bool) -> bool:
    """Per-tree selections bit for bit; ``scanned_k`` in budget mode only."""
    return len(actual) == len(expected) and all(
        (a.tree_size, a.k, a.score, a.penalized_objective, a.initiators)
        == (e.tree_size, e.k, e.score, e.penalized_objective, e.initiators)
        and (not budgeted or a.scanned_k == e.scanned_k)
        for a, e in zip(actual, expected)
    )


def check_identity(config: RIDConfig, snapshot: SignedDiGraph, budgets) -> list:
    """Engine vs reference across execution modes; returns failure strings."""
    failures = []
    expected, expected_selections = reference_detect(config, snapshot)
    serial = RID(config)
    if not results_equal(serial.detect(snapshot), expected):
        failures.append("beta mode: engine(serial) != reference")
    if not selections_equal(serial.last_selections, expected_selections, budgeted=False):
        failures.append("beta mode: engine(serial) per-tree selections != reference")
    if not results_equal(serial.detect(snapshot), expected):
        failures.append("beta mode: engine(cache-warm) != reference")
    parallel = RID(config)
    got = parallel.detect(snapshot, runtime=RuntimeConfig(workers=4))
    if not results_equal(got, expected):
        failures.append("beta mode: engine(workers=4) != reference")

    sweep_detector = RID(config)
    for budget in budgets:
        want, want_selections = reference_detect_with_budget(config, snapshot, budget)
        got = sweep_detector.detect_with_budget(snapshot, budget=budget)
        if not results_equal(got, want):
            failures.append(f"budget={budget}: engine(shared cache) != reference")
        if not selections_equal(sweep_detector.last_selections, want_selections, budgeted=True):
            failures.append(f"budget={budget}: engine per-tree selections != reference")
        got = RID(config).detect_with_budget(
            snapshot, budget=budget, runtime=RuntimeConfig(workers=4)
        )
        if not results_equal(got, want):
            failures.append(f"budget={budget}: engine(workers=4) != reference")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tiny", action="store_true", help="CI smoke: identity only")
    parser.add_argument("--components", type=int, default=12)
    parser.add_argument("--size", type=int, default=40, help="nodes per component")
    parser.add_argument("--sweep", type=int, default=10, help="budgets in the sweep")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", default="BENCH_pipeline.json")
    args = parser.parse_args(argv)

    if args.tiny:
        args.components, args.size, args.sweep, args.repeats = 8, 10, 3, 1

    config = RIDConfig()
    snapshot = build_snapshot(args.components, args.size, args.seed)
    base, _ = reference_detect(config, snapshot)
    min_budget = len(base.trees)
    budgets = list(range(min_budget, min_budget + args.sweep))

    print(
        f"snapshot: {args.components} components x {args.size} nodes = "
        f"{snapshot.number_of_nodes()} nodes, {snapshot.number_of_edges()} edges, "
        f"{min_budget} cascade trees"
    )

    gate = Gate()
    gate.failures += check_identity(config, snapshot, budgets)
    if gate.failures:
        return gate.finish()
    print(f"identity: OK (serial, cache-warm, workers=4; {len(budgets)} budgets)")

    report = {
        "snapshot": {
            "components": args.components,
            "component_size": args.size,
            "nodes": snapshot.number_of_nodes(),
            "edges": snapshot.number_of_edges(),
            "trees": min_budget,
            "seed": args.seed,
        },
        "workers": 4,
        "identity": "ok",
    }

    if not args.tiny:
        ref_detect_s = best_of(lambda: reference_detect(config, snapshot), args.repeats)

        def engine_detect():
            RID(config).detect(snapshot, runtime=RuntimeConfig(workers=4))

        engine_detect_s = best_of(engine_detect, args.repeats)

        def ref_sweep():
            for budget in budgets:
                reference_detect_with_budget(config, snapshot, budget)

        ref_sweep_s = best_of(ref_sweep, args.repeats)

        sweep_detector = RID(config)

        def engine_sweep():
            for budget in budgets:
                sweep_detector.detect_with_budget(
                    snapshot, budget=budget, runtime=RuntimeConfig(workers=4)
                )

        # First pass populates the artifact cache; keep it in the timed
        # region only once by benching cold then warm separately.
        engine_sweep_cold_s = best_of(engine_sweep, 1)
        engine_sweep_warm_s = best_of(engine_sweep, max(1, args.repeats - 1))

        speedup = ref_sweep_s / engine_sweep_cold_s
        report["timings"] = {
            "detect_reference_s": round(ref_detect_s, 6),
            "detect_engine_workers4_s": round(engine_detect_s, 6),
            "budget_sweep_reference_s": round(ref_sweep_s, 6),
            "budget_sweep_engine_cold_s": round(engine_sweep_cold_s, 6),
            "budget_sweep_engine_warm_s": round(engine_sweep_warm_s, 6),
            "budgets_in_sweep": len(budgets),
        }
        report["speedup"] = round(speedup, 3)
        report["speedup_note"] = (
            "budget sweep: reference recomputes every per-tree OPT curve per "
            "budget; the engine's artifact cache computes each curve once"
        )
        report["cache"] = sweep_detector.cache.stats()
        print(
            f"detect: reference {ref_detect_s:.4f}s, engine(workers=4) "
            f"{engine_detect_s:.4f}s"
        )
        print(
            f"budget sweep x{len(budgets)}: reference {ref_sweep_s:.4f}s, "
            f"engine cold {engine_sweep_cold_s:.4f}s, warm "
            f"{engine_sweep_warm_s:.4f}s -> speedup {speedup:.2f}x"
        )
        if speedup < 2.0:
            gate.failures.append(f"budget-sweep speedup {speedup:.2f}x < 2x")

    return gate.finish(report, args.out)


if __name__ == "__main__":
    raise SystemExit(main())
