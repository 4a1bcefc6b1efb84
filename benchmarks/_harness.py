"""Shared plumbing of the ``benchmarks/bench_*.py`` gates.

A gate script imports what it needs with ``from _harness import ...``
(a script's own directory is first on ``sys.path``):

* :func:`timed` and :func:`best_of` — one call's wall time, and the
  fastest of repeated blocks (block-min timing strips scheduler noise
  from a deterministic workload);
* :func:`random_signed_digraph` and :func:`seed_set` — the synthetic
  cascade inputs, also as one :func:`compiled_input`. Both draw from
  ``spawn_rng(seed, label)`` with the caller's label, so each gate
  builds exactly the inputs it always did;
* :func:`canonical` and :func:`results_equal` — identity comparisons
  of wire payloads and of detection results;
* :class:`Gate` — the failed checks of one run, turned into its exit
  status, and its JSON report.

Importing this module also puts the repository root on ``sys.path``,
so gates can import the reference oracles in ``tests/oracles``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.graphs.signed_digraph import SignedDiGraph
from repro.kernel.cascade import check_seeds_compiled
from repro.kernel.compile import CompiledGraph, compile_graph
from repro.types import NodeState
from repro.utils.rng import spawn_rng

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))


def timed(fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Tuple[float, Any]:
    """``(seconds, fn(*args, **kwargs))`` for one call."""
    start = time.perf_counter()
    value = fn(*args, **kwargs)
    return time.perf_counter() - start, value


def best_of(fn: Callable[[], Any], repeats: int) -> float:
    """The fastest of ``repeats`` calls of ``fn``, in seconds."""
    return min((timed(fn)[0] for _ in range(repeats)), default=float("inf"))


def random_signed_digraph(
    n: int, m: int, seed: int, label: str, weight_low: float, weight_span: float
) -> SignedDiGraph:
    """Nodes ``0..n-1`` and exactly ``m`` distinct non-loop edges.

    Each edge is positive with probability 0.8 and weighs
    ``weight_low + weight_span * u`` for a uniform draw ``u``, which is
    drawn even when ``weight_span`` is 0.
    """
    rng = spawn_rng(seed, label)
    graph = SignedDiGraph()
    graph.add_nodes(range(n))
    added = 0
    while added < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v or graph.has_edge(u, v):
            continue
        sign = 1 if rng.random() < 0.8 else -1
        graph.add_edge(u, v, sign, weight_low + weight_span * rng.random())
        added += 1
    return graph


def seed_set(n: int, seed: int, label: str) -> Dict[int, NodeState]:
    """Ten nodes of ``range(n)``, ascending; the 1st, 4th, 7th and 10th negative."""
    picked = sorted(spawn_rng(seed, label).sample(range(n), 10))
    return {
        node: NodeState.POSITIVE if i % 3 else NodeState.NEGATIVE
        for i, node in enumerate(picked)
    }


def compiled_input(
    n: int, m: int, seed: int, label: str, weight_low: float, weight_span: float
) -> Tuple[CompiledGraph, Dict[int, NodeState]]:
    """The compiled :func:`random_signed_digraph` and its checked seed set."""
    graph = random_signed_digraph(n, m, seed, label, weight_low, weight_span)
    compiled = compile_graph(graph)
    return compiled, check_seeds_compiled(compiled, seed_set(n, seed, "bench-seeds"))


def canonical(payload: Any) -> str:
    """Key-sorted JSON text: equal strings mean identical payloads."""
    return json.dumps(payload, sort_keys=True)


def results_equal(a, b) -> bool:
    """Detection results with equal initiators, states, objective, tree nodes."""
    return (
        a.initiators == b.initiators
        and a.states == b.states
        and a.objective == b.objective
        and [sorted(t.nodes()) for t in a.trees] == [sorted(t.nodes()) for t in b.trees]
    )


class Gate:
    """The failed checks of one gate run.

    Scripts append a label to :attr:`failures` for each failed check,
    or call :meth:`check` to also print the check's line. :meth:`finish`
    is the run's exit status.
    """

    def __init__(self, width: int = 46) -> None:
        #: Label column width of :meth:`check`'s lines.
        self.width = width
        self.failures: List[str] = []

    def check(self, label: str, ok: bool) -> None:
        """Print ``label`` with ``OK`` or ``FAIL``; record it if it failed."""
        print("  %-*s %s" % (self.width, label, "OK" if ok else "FAIL"))
        if not ok:
            self.failures.append(label)

    def finish(self, report: Optional[dict] = None, out: Optional[str] = None) -> int:
        """The run's exit status.

        On failure: 1, with one ``FAIL: <label>`` line per failed check
        on stderr and no report written. Otherwise 0, after writing
        ``report`` (if given) to ``out`` as indented, key-sorted JSON.
        """
        for label in self.failures:
            print(f"FAIL: {label}", file=sys.stderr)
        if self.failures:
            return 1
        if report is not None:
            with open(out, "w", encoding="utf-8") as handle:
                json.dump(report, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"wrote {out}")
        return 0
