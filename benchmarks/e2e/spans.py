"""In-memory spans recorded around calls into the program's layers.

The program itself is not instrumented for this benchmark: a
:class:`Tracer` wraps the *public* layer functions from outside (module
attributes and class methods looked up at call time), so every call the
real entry points make — ``repro.detect``, ``StreamingDetectionEngine``
— becomes a span with a name, start, end, parent and run id. Spans stay
in memory; :meth:`Tracer.chrome` turns them into Chrome-trace JSON when
the run ends.

A span's *self time* is its duration minus the time its child spans
cover, so ``kernel.tree_dp`` (``greedy_tree_selection``) does not also
count the ``core.binarize`` call nested inside it, and the root span of
a ``repro.detect`` call keeps only what no layer claims (digests, cache
bookkeeping, result assembly).
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    run: str = ""
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects nested spans for one benchmark run (single thread)."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Span] = []
        self._open: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **args: Any) -> Iterator[Span]:
        parent = self._open[-1] if self._open else None
        record = Span(name, time.perf_counter(), parent=parent, run=self.run_id, args=args)
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def wrap(self, fn: Callable, name: str, sink: Optional[list] = None) -> Callable:
        """``fn`` with every call recorded as a span; results go to ``sink``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if sink is not None:
                sink.append(result)
            return result

        return traced

    @contextlib.contextmanager
    def patched(self, targets: Sequence[Tuple[Any, str, str, Optional[list]]]) -> Iterator[None]:
        """Wrap ``owner.attr`` as span ``name`` for the ``with`` body.

        Each target is ``(owner, attr, name, sink)``; the originals are
        restored on exit even when the body raises.
        """
        saved = []
        try:
            for owner, attr, name, sink in targets:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, sink))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- reading the spans ---------------------------------------------

    def self_times(
        self,
        root: Optional[Span] = None,
        measure: Optional[Callable[[float, float], float]] = None,
    ) -> Dict[str, float]:
        """Total self time per span name, under ``root`` when given.

        ``measure(start, end)`` turns an interval into seconds (wall time
        by default; the benchmark passes its reference-speed rescaling).
        """
        if measure is None:
            measure = lambda start, end: end - start  # noqa: E731
        lengths = [measure(span.start, span.end) for span in self.spans]
        child_time = [0.0] * len(self.spans)
        for index, span in enumerate(self.spans):
            if span.parent is not None:
                child_time[span.parent] += lengths[index]
        keep = self._subtree(root)
        totals: Dict[str, float] = {}
        for index, span in enumerate(self.spans):
            if index in keep:
                totals[span.name] = totals.get(span.name, 0.0) + lengths[index] - child_time[index]
        return totals

    def _subtree(self, root: Optional[Span]) -> set:
        if root is None:
            return set(range(len(self.spans)))
        start = next(i for i, span in enumerate(self.spans) if span is root)
        keep = {start}
        for index in range(start + 1, len(self.spans)):
            if self.spans[index].parent in keep:
                keep.add(index)
        return keep

    def chrome(self) -> Dict[str, Any]:
        """Chrome Trace Event Format document (complete ``X`` events, µs)."""
        origin = min((span.start for span in self.spans), default=0.0)
        events = [
            {
                "name": span.name,
                "ph": "X",
                "ts": round((span.start - origin) * 1e6, 3),
                "dur": round(span.duration * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": dict(span.args, run=span.run, id=index, parent=span.parent),
            }
            for index, span in enumerate(self.spans)
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}
