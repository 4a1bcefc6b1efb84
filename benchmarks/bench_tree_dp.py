#!/usr/bin/env python
"""Benchmark the compiled TreeDP kernel against the recursive solver.

The recursive dict-memo solver is the reference oracle in
``tests/oracles/tree_dp.py``.

Builds paper-scale random cascade trees in two families, binarises
each, and runs the Sec. III-D k-ISOMIT-BT budget sweep (``k = 1..cap``)
two ways:

* ``random`` — general fan-out with random states, signs and weights;
  few links saturate, so the kernel keeps about one ancestor class per
  ancestor depth;
* ``saturated`` — the same shapes with about 60% of links positive,
  state-consistent and ``w >= 1/α`` (``g == 1.0`` exactly), the share
  the paper workloads show; ancestors joined by such links collapse
  into one class column.

1. **identity** — asserts the compiled kernel's whole curve (``score``
   and ``initiators`` per budget) is **bit-identical** to the recursive
   dict-memo solver, both from one sweep (``solve_curve``) and from
   incremental ``solve(1)``, ``solve(2)``, … calls that resume the
   tables as the cap grows, exiting non-zero on any mismatch;
2. **β mode** — on every tree of at most ``PENALIZED_MAX_NODES`` real
   nodes, at each β in ``PENALIZED_BETAS``: the kernel's one-pass
   ``solve_penalized`` must score at least the paper's greedy stop
   (``greedy_stop`` in ``tests/oracles/tree_dp.py``) minus 1e-9, match
   the best penalised objective over every k to 1e-9, and pick the
   stop's k and initiators wherever the curve is concave and free of
   near-ties, exiting non-zero otherwise;
3. **timing** — compares the recursive solver's incremental sweep
   (shared memo across budgets) against the kernel's single-sweep
   ``solve_curve``. The n=2000 ``random`` configuration is the gated
   headline: the kernel must be ≥ 3x faster end-to-end.

Results are written as JSON (default ``BENCH_tree_dp.json`` in the
current directory). Run with:

    PYTHONPATH=src python benchmarks/bench_tree_dp.py

``--tiny`` runs a seconds-scale smoke configuration meant for CI: full
identity checks, no assertions about speed (CI boxes are noisy).
"""

from __future__ import annotations

import argparse

from _harness import Gate, best_of
from repro.core.binarize import binarize_cascade_tree
from repro.graphs.generators.trees import random_general_tree
from repro.graphs.signed_digraph import SignedDiGraph
from repro.kernel.tree_dp import TreeDPKernel, compile_binary_tree
from repro.types import NodeState
from repro.utils.rng import spawn_rng
from tests.oracles.tree_dp import (
    RecursiveTreeDP,
    best_over_k,
    greedy_stop,
    paper_stop_is_exact,
)

ALPHA = 3.0
#: β values of the β-mode check.
PENALIZED_BETAS = (0.1, 0.5, 1.0)
#: Largest tree the β-mode check reads the whole budget curve of.
PENALIZED_MAX_NODES = 500
#: Share of exactly-saturated links in the ``saturated`` family.
SATURATED_SHARE = 0.6
#: Tree sizes of the ``saturated`` family in the full run.
SATURATED_SIZES = [2000]


def build_tree(n: int, seed: int):
    """A random ``n``-node general cascade tree with random states."""
    tree = random_general_tree(n, max_children=3, rng=seed)
    rng = spawn_rng(seed, "bench-tree-dp-states")
    for node in tree.nodes():
        tree.set_state(
            node, NodeState.POSITIVE if rng.random() < 0.6 else NodeState.NEGATIVE
        )
    return tree


def build_saturated_tree(n: int, seed: int):
    """``build_tree``'s shape with ~60% of links saturated (``g == 1.0``).

    A saturated link is positive, joins two nodes in the same state and
    has ``w >= 1/α``. Every other link gets a random sign and child state
    and ``w < 1/α``, so it is either unsaturated or inconsistent.
    """
    shape = random_general_tree(n, max_children=3, rng=seed)
    rng = spawn_rng(seed, "bench-tree-dp-saturated")
    tree = SignedDiGraph(name=f"saturated-tree-{n}")
    states = [NodeState.POSITIVE]
    tree.add_node(0, states[0])
    for child in range(1, n):  # random_general_tree numbers parents first
        (parent,) = shape.predecessors(child)
        if rng.random() < SATURATED_SHARE:
            state, sign = states[parent], 1
            weight = rng.uniform(1.0 / ALPHA, 1.0)
        else:
            state = NodeState.POSITIVE if rng.random() < 0.6 else NodeState.NEGATIVE
            sign = 1 if rng.random() < 0.8 else -1
            weight = rng.uniform(0.05, 1.0 / ALPHA)
        states.append(state)
        tree.add_node(child, state)
        tree.add_edge(parent, child, sign, weight)
    return tree


FAMILIES = {"random": build_tree, "saturated": build_saturated_tree}


def reference_curve(binary, cap):
    """The recursive solver's incremental budget sweep (shared memo)."""
    solver = RecursiveTreeDP(binary)
    return [solver.solve(k) for k in range(1, cap + 1)]


def compiled_curve(binary, cap):
    """The kernel's single-sweep curve (includes tree compilation)."""
    return TreeDPKernel(binary).solve_curve(cap)


def resumed_curve(binary, cap):
    """The kernel's curve from incremental solves (resumed sweeps)."""
    solver = TreeDPKernel(binary)
    return [solver.solve(k) for k in range(1, cap + 1)]


def check_identity(binary, cap, label: str) -> list:
    """Compiled vs recursive over the whole curve; returns failure strings."""
    failures = []
    reference = reference_curve(binary, cap)
    for path, curve in (
        ("one sweep", compiled_curve(binary, cap)),
        ("resumed", resumed_curve(binary, cap)),
    ):
        for ref, ker in zip(reference, curve):
            if ker.score != ref.score:
                failures.append(
                    f"{label} {path} k={ref.k}: score {ker.score!r} "
                    f"!= reference {ref.score!r}"
                )
            if ker.initiators != ref.initiators:
                failures.append(
                    f"{label} {path} k={ref.k}: initiators differ from reference"
                )
    return failures


def check_penalized(binary, label: str) -> list:
    """The one-pass β selection against the paper's stop; failure strings."""
    failures = []
    for beta in PENALIZED_BETAS:
        found = TreeDPKernel(binary).solve_penalized(beta)
        paper = greedy_stop(binary, beta)
        best = best_over_k(binary, beta)
        mine = found.score - (found.k - 1) * beta
        if mine < paper.score - (paper.k - 1) * beta - 1e-9:
            failures.append(f"{label} beta={beta}: pass scores below the paper's stop")
        if abs(mine - (best.score - (best.k - 1) * beta)) > 1e-9:
            failures.append(f"{label} beta={beta}: pass misses the best objective over k")
        if paper_stop_is_exact(binary, beta) and (found.k, found.initiators) != (
            paper.k,
            paper.initiators,
        ):
            failures.append(f"{label} beta={beta}: pass and paper's stop pick other initiators")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tiny", action="store_true", help="CI smoke: identity only")
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=[200, 2000, 10000]
    )
    parser.add_argument("--max-k", type=int, default=20, help="budget sweep cap")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", default="BENCH_tree_dp.json")
    args = parser.parse_args(argv)

    saturated_sizes = SATURATED_SIZES
    if args.tiny:
        args.sizes, args.max_k, args.repeats = [40, 120], 8, 1
        saturated_sizes = [120]

    report = {
        "max_k": args.max_k,
        "seed": args.seed,
        "trees": [],
        "note": (
            "budget sweep k=1..cap per tree; reference = recursive dict-memo "
            "solver with memo shared across budgets, compiled = flat-array "
            "kernel solve_curve (one post-order sweep, compile included); "
            "mean_columns = mean ancestor-class columns per slot, against "
            "mean_depth_plus_1 columns a per-depth layout would need"
        ),
    }

    gate = Gate()
    configs = [("random", n) for n in args.sizes]
    configs += [("saturated", n) for n in saturated_sizes]
    for family, n in configs:
        tree = FAMILIES[family](n, args.seed)
        binary = binarize_cascade_tree(tree, alpha=ALPHA)
        cap = min(args.max_k, binary.num_real)
        ct = compile_binary_tree(binary)
        entry = {
            "family": family,
            "n": n,
            "binary_size": binary.size(),
            "depth": binary.depth(),
            "cap": cap,
            "mean_columns": round(sum(ct.ncls) / ct.size, 3),
            "mean_depth_plus_1": round(sum(ct.depth) / ct.size + 1, 3),
        }
        label = f"{family} n={n}"

        failures = check_identity(binary, cap, label)
        if failures:
            gate.failures += failures
            continue
        print(f"{label}: identity OK (curve k=1..{cap} bit-identical, one sweep and resumed)")
        if binary.num_real <= PENALIZED_MAX_NODES:
            failures = check_penalized(binary, label)
            if failures:
                gate.failures += failures
                continue
            betas = ", ".join(map(str, PENALIZED_BETAS))
            print(f"{label}: beta mode OK (one pass vs the paper's stop at beta {betas})")

        if not args.tiny:
            reference_s = best_of(lambda: reference_curve(binary, cap), args.repeats)
            compiled_s = best_of(lambda: compiled_curve(binary, cap), args.repeats)
            speedup = reference_s / compiled_s
            entry.update(
                {
                    "reference_s": round(reference_s, 6),
                    "compiled_s": round(compiled_s, 6),
                    "speedup": round(speedup, 3),
                }
            )
            print(
                f"{label}: reference {reference_s:.4f}s, compiled {compiled_s:.4f}s "
                f"-> speedup {speedup:.2f}x"
            )
            # The acceptance gate targets the n=2000 random configuration.
            if family == "random" and n == 2000 and speedup < 3.0:
                gate.failures.append(f"{label} speedup {speedup:.2f}x < 3x")
        report["trees"].append(entry)

    report["identity"] = "ok"
    return gate.finish(report, args.out)


if __name__ == "__main__":
    raise SystemExit(main())
