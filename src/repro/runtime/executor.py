"""The generic trial fan-out engine.

``run_trials(fn, payload, specs)`` evaluates ``fn(payload, spec)`` for
every spec and returns the results in spec order. With
``config.workers > 1`` the specs are chunked and shipped to a
:class:`~concurrent.futures.ProcessPoolExecutor`; the *payload* (the
expensive shared part — graph, model, seed assignment, base seed) is
pickled once per chunk rather than once per trial.

Determinism contract: ``fn`` must derive any randomness it needs from
the payload and the spec alone (the library convention is
``derive_seed(base_seed, *labels, trial)`` called *inside* ``fn``), so a
parallel run is bit-identical to a serial one — only wall-clock order
differs, never results.

Fallback contract: when ``workers == 1``, when there is at most one
trial to compute, or when ``(fn, payload, specs)`` cannot be pickled
(e.g. detector factories built from lambdas), the engine silently runs
serially in-process and records why in the report.
"""

from __future__ import annotations

import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.codec import CacheCodecError
from repro.obs.metrics import Metrics, MetricsRecorder
from repro.obs.recorder import Recorder, resolve_recorder, using_recorder
from repro.runtime.cache import TrialCache
from repro.runtime.config import SERIAL, RuntimeConfig


@dataclass(frozen=True)
class TrialTiming:
    """Wall-clock accounting for one trial.

    Attributes:
        index: position of the trial in the input spec sequence.
        seconds: compute time of the trial body (0.0 for cache hits).
        cached: True when the result came from the on-disk cache.
    """

    index: int
    seconds: float
    cached: bool = False


@dataclass
class TrialReport:
    """Execution statistics of one :func:`run_trials` call."""

    label: str
    workers: int
    chunks: int
    cache_hits: int
    fallback_reason: Optional[str]
    wall_seconds: float
    timings: List[TrialTiming] = field(default_factory=list)

    @property
    def compute_seconds(self) -> float:
        """Summed per-trial compute time (across all workers)."""
        return sum(t.seconds for t in self.timings)


@dataclass
class TrialOutcome:
    """Results plus execution statistics, in input spec order."""

    results: List[Any]
    report: TrialReport


def _run_chunk(
    fn: Callable[[Any, Any], Any],
    payload: Any,
    chunk: List[Tuple[int, Any]],
    observe: bool = False,
) -> Tuple[List[Tuple[int, Any, float]], Optional[Metrics]]:
    """Worker body: evaluate a chunk of (index, spec) pairs with timings.

    With ``observe`` set, the chunk runs under a fresh
    :class:`~repro.obs.metrics.MetricsRecorder` installed as the ambient
    recorder, and the picklable :class:`~repro.obs.metrics.Metrics`
    snapshot travels back with the results. Serial and parallel
    execution share this exact path, so merged counters are
    bit-identical regardless of worker count (merging is commutative and
    every trial's recording is deterministic given its derived seed).
    """
    recorder = MetricsRecorder() if observe else None
    out = []
    with using_recorder(recorder):
        for index, spec in chunk:
            start = time.perf_counter()
            result = fn(payload, spec)
            out.append((index, result, time.perf_counter() - start))
    return out, (recorder.metrics if recorder is not None else None)


#: Payload pickling probes, keyed by object identity. Entries hold a
#: strong reference to the probed payload so an ``id()`` can never be
#: recycled while its entry is live; the table is cleared (not evicted
#: LRU-style — probes are cheap enough to redo) once it fills up.
_PICKLE_PROBE_MEMO: dict = {}
_PICKLE_PROBE_LIMIT = 64


def _probe_picklable(obj: Any) -> bool:
    """True when ``obj`` survives ``pickle.dumps``.

    Only the exceptions pickle actually raises for unpicklable values
    (``PicklingError``, plus the ``TypeError``/``AttributeError`` that
    escape from lambdas, local classes and closed-over handles) are
    treated as "run serially"; anything else — a broken ``__reduce__``,
    a ``RecursionError`` — is a genuine bug and propagates.
    """
    try:
        pickle.dumps(obj)
        return True
    except (pickle.PicklingError, TypeError, AttributeError):
        return False


def _picklable(fn: Any, payload: Any, specs: Any) -> bool:
    """Can ``(fn, payload, specs)`` be shipped to worker processes?

    The payload probe is memoized per payload *identity*: sweeps and
    repeated runs fan out the same (potentially large) graph/model
    payload many times, and each probe re-pickles all of it. ``fn`` is a
    module-level callable (pickled by reference, cheap) and the specs
    are small and change per call, so they are probed fresh.
    """
    entry = _PICKLE_PROBE_MEMO.get(id(payload))
    if entry is not None and entry[0] is payload:
        payload_ok = entry[1]
    else:
        payload_ok = _probe_picklable(payload)
        if len(_PICKLE_PROBE_MEMO) >= _PICKLE_PROBE_LIMIT:
            _PICKLE_PROBE_MEMO.clear()
        _PICKLE_PROBE_MEMO[id(payload)] = (payload, payload_ok)
    return payload_ok and _probe_picklable(fn) and _probe_picklable(specs)


def run_trials(
    fn: Callable[[Any, Any], Any],
    payload: Any,
    specs: Sequence[Any],
    config: RuntimeConfig = SERIAL,
    cache: Optional[TrialCache] = None,
    key_fn: Optional[Callable[[Any], str]] = None,
    encode: Optional[Callable[[Any], dict]] = None,
    decode: Optional[Callable[[dict], Any]] = None,
    label: str = "trials",
    recorder: Optional[Recorder] = None,
) -> TrialOutcome:
    """Evaluate ``fn(payload, spec)`` for every spec, possibly in parallel.

    Args:
        fn: module-level trial body (must be picklable by reference for
            parallel execution).
        payload: shared arguments, pickled once per chunk.
        specs: per-trial arguments; results come back in this order.
        config: worker/chunk/cache configuration.
        cache: optional trial cache; requires ``key_fn`` and ``decode``
            to read and ``key_fn`` and ``encode`` to write.
        key_fn: maps a spec to its stable cache key.
        encode: JSON-encodes one result (may raise
            :class:`CacheCodecError` to decline).
        decode: rebuilds a result from its JSON payload. An entry it
            rejects (:class:`CacheCodecError`, ``KeyError``,
            ``TypeError``, ``ValueError``) is a miss: the trial is
            recomputed and the entry overwritten.
        label: name used in the report.
        recorder: observability sink (defaults to the ambient recorder).
            Each chunk — worker-side or serial — records into its own
            :class:`~repro.obs.metrics.MetricsRecorder`; the snapshots
            are absorbed here in commutative merges, so counters are
            identical for any ``workers`` value. ``runtime.*`` counters
            (trials, cache hits, chunks) and a per-label wall timer are
            recorded on top.

    Returns:
        A :class:`TrialOutcome` whose ``results`` are bit-identical to
        ``[fn(payload, s) for s in specs]`` regardless of ``workers``.
    """
    config.validate()
    rec = resolve_recorder(recorder)
    started = time.perf_counter()
    specs = list(specs)
    results: List[Any] = [None] * len(specs)
    timings: List[Optional[TrialTiming]] = [None] * len(specs)

    # Resolve cache hits up front; only misses are fanned out.
    pending: List[Tuple[int, Any]] = []
    keys: List[Optional[str]] = [None] * len(specs)
    cache_hits = 0
    keyed = cache is not None and key_fn is not None
    readable = keyed and decode is not None
    for index, spec in enumerate(specs):
        if keyed:
            keys[index] = key_fn(spec)
        if readable:
            payload_json = cache.load(keys[index])
            if payload_json is not None:
                try:
                    results[index] = decode(payload_json)
                except (CacheCodecError, KeyError, TypeError, ValueError):
                    pass  # corrupt/stale entry: recompute and overwrite it
                else:
                    timings[index] = TrialTiming(index=index, seconds=0.0, cached=True)
                    cache_hits += 1
                    continue
        pending.append((index, spec))

    fallback_reason: Optional[str] = None
    workers_used = 1
    chunks: List[List[Tuple[int, Any]]] = []
    if pending:
        if not config.parallel:
            fallback_reason = "workers=1"
        elif len(pending) < 2:
            fallback_reason = "single trial"
        elif not _picklable(fn, payload, [spec for _, spec in pending]):
            fallback_reason = "inputs not picklable"
            if rec.enabled:
                rec.incr("runtime.pickle_fallback")

        observe = rec.enabled
        if fallback_reason is None:
            size = config.resolve_chunk_size(len(pending))
            chunks = [pending[i : i + size] for i in range(0, len(pending), size)]
            workers_used = min(config.workers, len(chunks))
            with ProcessPoolExecutor(max_workers=workers_used) as pool:
                futures = [
                    pool.submit(_run_chunk, fn, payload, c, observe) for c in chunks
                ]
                completed = [f.result() for f in futures]
        else:
            chunks = [pending]
            completed = [_run_chunk(fn, payload, pending, observe)]

        writable = cache is not None and key_fn is not None and encode is not None
        for chunk_result, chunk_metrics in completed:
            rec.absorb(chunk_metrics)
            for index, result, seconds in chunk_result:
                results[index] = result
                timings[index] = TrialTiming(index=index, seconds=seconds)
                if writable and keys[index] is not None:
                    try:
                        cache.store(keys[index], encode(result))
                    except CacheCodecError:
                        pass  # uncacheable value: compute-only trial

    report = TrialReport(
        label=label,
        workers=workers_used,
        chunks=len(chunks),
        cache_hits=cache_hits,
        fallback_reason=fallback_reason,
        wall_seconds=time.perf_counter() - started,
        timings=[t for t in timings if t is not None],
    )
    if rec.enabled:
        rec.incr("runtime.trials", len(specs))
        rec.incr("runtime.computed", len(pending))
        rec.incr("runtime.cache_hits", cache_hits)
        rec.incr("runtime.chunks", len(chunks))
        rec.timing(f"runtime.{label}", report.wall_seconds)
    return TrialOutcome(results=results, report=report)
