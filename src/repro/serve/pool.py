"""Warm-cache worker pool: shard affinity, micro-batching, admission.

The serving tier's compute plane. Each worker thread owns a
:class:`WorkerHost` — decoded-graph LRU, warm registry detectors (one
per ``(name, config)``; RID, RID-Tree and RID-Positive instances keep
their :class:`~repro.pipeline.cache.ArtifactCache`, ``detector.cache``,
hot across requests), and the live streaming sessions. Requests are
sharded onto workers by a digest of what they touch (the request
body's bytes, or the session name), so a repeated request always lands
on the worker that already compiled its graph — that affinity is what
makes the cache warm instead of merely present.

Mechanics worth knowing:

* **Admission control** — each worker has a bounded queue;
  :meth:`WorkerPool.submit` never blocks, it sheds with
  :class:`~repro.errors.ServerOverloadedError` (→ 503 + ``Retry-After``)
  when the shard is full.
* **Micro-batching** — a worker drains up to ``batch_max`` queued
  requests per wakeup and coalesces byte-identical ones (same body
  digest) into a single computation fanned out to every waiting future.
  Detection is deterministic, so coalescing is exact, not approximate.
* **Two graph keys** — the decoded-graph LRU is found first by the
  request body's digest, which a byte-identical repeat hits without
  serialising anything, then by the graph payload's canonical digest,
  so a new config or budget on a known graph still skips the decode.
* **Thread-safe metrics without locks** —
  :class:`~repro.obs.metrics.MetricsRecorder` is not thread-safe, so
  each worker records into its own private recorder and
  :meth:`WorkerPool.metrics` folds the snapshots together with the
  commutative :meth:`~repro.obs.metrics.Metrics.merge`.
* **Cancellation-safe futures** — the server side abandons a request by
  cancelling its future (timeout); the worker claims each future with
  ``set_running_or_notify_cancel`` before computing, so an abandoned
  request is skipped (counted as ``serve.abandoned``) instead of
  crashing on a double resolution.
"""

from __future__ import annotations

import dataclasses
import hashlib
import queue
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.codec import CacheCodecError, decode_states
from repro.detectors.registry import detector_digest, resolve_detector
from repro.errors import (
    ConfigError,
    ServerOverloadedError,
    SessionExistsError,
    SessionNotFoundError,
    WireFormatError,
)
from repro.graphs.signed_digraph import SignedDiGraph
from repro.obs.metrics import Metrics, MetricsRecorder
from repro.obs.recorder import using_recorder
from repro.serve import wire
from repro.stream.delta import SnapshotDelta
from repro.utils.validation import config_from_dict

_SHUTDOWN = object()

#: Body digests remembered per decoded-graph slot. Each maps a request
#: body to its graph's canonical digest; it is a pointer, not a copy of
#: the graph, so it takes no ``engine_cache`` slot.
BODY_KEYS_PER_GRAPH = 16

#: The longest run ``/v1/simulate`` accepts from a model whose round cap
#: is its run length: ``voter`` runs all ``rounds``, and ``sir`` with
#: ``recovery_probability`` 0 runs all ``max_rounds`` (SIR's default is
#: this limit, so every default passes). The other models stop when
#: their activation attempts run out, so their caps stay unchecked.
MAX_SERVED_ROUNDS = 10_000
_ROUND_CAPS = {"voter": "rounds", "sir": "max_rounds"}

#: The most Monte-Carlo trials one request may ask for: ``trials`` on
#: ``/v1/simulate`` and ``/v1/evaluate``, and the ``trials`` field of a
#: named detector's ``config`` on every route (the detector defaults are
#: 8-10). A worker cannot stop a computation it has claimed, so an
#: unbounded count would hold it far past the request timeout.
MAX_SERVED_TRIALS = 1_000

#: The largest ``workload.scale`` ``/v1/evaluate`` builds a network for:
#: the largest scale measured, where one detect of an Epinions-like
#: snapshot with 40 planted initiators already takes 16-19 s.
MAX_SERVED_SCALE = 0.05


def _check_trials(field: str, trials: Optional[int]) -> None:
    if trials is not None and trials > MAX_SERVED_TRIALS:
        raise ConfigError(
            f"{field} must be <= {MAX_SERVED_TRIALS} on a served request, got {trials}"
        )


def _detector_config(name: str, payload: Any) -> Any:
    """A served detector's validated config, its ``trials`` bounded."""
    config = wire.detector_config_from_json(name, payload)
    _check_trials(f"{name} config trials", getattr(config, "trials", None))
    return config


@dataclasses.dataclass
class ServeRequest:
    """One queued unit of work, resolved through ``future``.

    ``coalesce_key`` is the request body's digest for stateless requests
    (None for session traffic); the worker passes it to the handler as
    the body key of its graph cache."""

    kind: str
    payload: Dict[str, Any]
    future: Future
    enqueued_at: float
    coalesce_key: Optional[str] = None


class WorkerHost:
    """Per-worker warm state; touched only by its owning thread.

    Both LRUs (decoded graphs, warm detectors) support an optional idle
    TTL: an entry untouched for ``cache_ttl_s`` seconds is evicted
    lazily on its next lookup (counted as ``serve.cache_expired``) and
    rebuilt cold, so a long-idle worker sheds stale graphs and artifact
    caches without a sweeper thread. Every hit refreshes the entry's
    clock. ``clock`` is injectable for tests (defaults to
    ``time.monotonic``).
    """

    def __init__(
        self,
        index: int,
        engine_cache: int,
        *,
        cache_ttl_s: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.index = index
        self.recorder = MetricsRecorder()
        self.sessions: Dict[str, Any] = {}
        self._graphs: "OrderedDict[str, Tuple[SignedDiGraph, float]]" = OrderedDict()
        self._graph_keys: "OrderedDict[str, str]" = OrderedDict()
        self._detectors: "OrderedDict[str, Tuple[Any, float]]" = OrderedDict()
        self._cap = max(1, engine_cache)
        self._ttl = cache_ttl_s
        self._clock = clock

    def _fresh(self, cache: "OrderedDict[str, Tuple[Any, float]]", key: str) -> Any:
        """The live entry for ``key``, or None after lazy TTL expiry."""
        entry = cache.get(key)
        if entry is None:
            return None
        value, touched = entry
        if self._ttl is not None and self._clock() - touched > self._ttl:
            del cache[key]
            self.recorder.incr("serve.cache_expired")
            return None
        cache[key] = (value, self._clock())
        cache.move_to_end(key)
        return value

    def graph(
        self, body_key: Optional[str], payload: Dict[str, Any]
    ) -> Tuple[SignedDiGraph, bool]:
        """The decoded graph for a wire graph payload, and whether it was
        cached.

        Decoded graphs are LRU-cached under the payload's canonical
        digest (:func:`~repro.serve.wire.payload_digest`). ``body_key``,
        the digest of the request body that carried ``payload`` (or
        None), is looked up first: it remembers that canonical digest,
        so a byte-identical repeat serialises nothing. A new body pays
        one canonical digest, which still finds the graph when only the
        config, budget or detector differ. Expiry and the hit/miss
        counters belong to the graph entry, so each counts once per
        request whichever key found it.
        """
        key = self._graph_keys.get(body_key) if body_key is not None else None
        if key is None:
            key = wire.payload_digest(payload)
            if body_key is not None:
                self._graph_keys[body_key] = key
                while len(self._graph_keys) > self._cap * BODY_KEYS_PER_GRAPH:
                    self._graph_keys.popitem(last=False)
        else:
            self._graph_keys.move_to_end(body_key)
        cached = self._fresh(self._graphs, key)
        if cached is not None:
            self.recorder.incr("serve.graph_cache.hits")
            return cached, True
        graph = wire.graph_from_json(payload)
        self._graphs[key] = (graph, self._clock())
        while len(self._graphs) > self._cap:
            self._graphs.popitem(last=False)
        self.recorder.incr("serve.graph_cache.misses")
        return graph, False

    def detector(self, name: str, config_payload: Any) -> Tuple[Any, bool]:
        """A warm detector for ``(name, hyper-parameters)``.

        Keyed by the registry's content-addressed
        :func:`~repro.detectors.detector_digest`, so two requests naming
        the same detector with the same config share a warm instance and
        different configs (or detectors) never collide. RID, and the
        RID-Tree / RID-Positive baselines through a private RID's front
        half, keep their :class:`~repro.pipeline.cache.ArtifactCache`
        (``detector.cache``) hot across requests (it is content-addressed
        by graph *and* config, so one instance per config safely serves
        every graph); the other detectors have no artifact store —
        warmth for them means skipping config re-validation and
        construction.
        """
        config = _detector_config(name, config_payload)
        key = detector_digest(name, config)
        cached = self._fresh(self._detectors, key)
        if cached is not None:
            self.recorder.incr("serve.engine_cache.hits")
            return cached, True
        detector = resolve_detector(name, config)
        self._detectors[key] = (detector, self._clock())
        while len(self._detectors) > self._cap:
            self._detectors.popitem(last=False)
        self.recorder.incr("serve.engine_cache.misses")
        return detector, False

    def cache_temperature(self) -> float:
        """Fraction of artifact-cache lookups that hit, across all warm
        detectors (0.0 when nothing has run yet). Only the detectors
        with a ``cache`` (RID, RID-Tree, RID-Positive) carry an artifact
        cache; the others contribute nothing."""
        hits = misses = 0
        for detector, _touched in self._detectors.values():
            cache = getattr(detector, "cache", None)
            if cache is None:
                continue
            hits += cache.hits
            misses += cache.misses
        total = hits + misses
        return hits / total if total else 0.0


# ---------------------------------------------------------------------------
# Request handlers (run on worker threads, ambient recorder installed)
# ---------------------------------------------------------------------------


def _handle_detect(
    host: WorkerHost, payload: Dict[str, Any], body_key: Optional[str]
) -> Dict[str, Any]:
    name = wire.detector_request(payload)
    graph, graph_hot = host.graph(body_key, wire.require(payload, "graph", dict))
    detector, engine_hot = host.detector(name, payload.get("config"))
    budget = wire.optional_int(payload, "budget")
    cache = getattr(detector, "cache", None)
    hits_before = cache.hits if cache is not None else 0
    misses_before = cache.misses if cache is not None else 0
    if budget is not None:
        result = detector.detect_with_budget(graph, budget)
    else:
        result = detector.detect(graph)
    reused = (cache.hits - hits_before) if cache is not None else 0
    computed = (cache.misses - misses_before) if cache is not None else 0
    host.recorder.incr(f"detector.{name}.requests")
    host.recorder.gauge("serve.cache_temperature", host.cache_temperature())
    return {
        "result": result.to_json(),
        "detector": name,
        "cache": {
            "graph": "hot" if graph_hot else "cold",
            "engine": "hot" if engine_hot else "cold",
            "reused_artifacts": reused,
            "computed_artifacts": computed,
        },
        "worker": host.index,
    }


def _handle_simulate(
    host: WorkerHost, payload: Dict[str, Any], body_key: Optional[str]
) -> Dict[str, Any]:
    from repro import api

    graph, graph_hot = host.graph(body_key, wire.require(payload, "graph", dict))
    try:
        seeds = decode_states(payload.get("seeds"))
    except CacheCodecError as exc:
        raise WireFormatError(f"malformed seeds payload: {exc}") from exc
    name = payload.get("model") or "mfc"
    params = payload.get("params") or {}
    if not isinstance(params, dict):
        raise WireFormatError("request field 'params' must be a JSON object")
    try:
        factory = api.MODEL_REGISTRY[name]
    except (KeyError, TypeError):
        raise ConfigError(
            f"unknown diffusion model {name!r}; expected one of "
            f"{sorted(api.MODEL_REGISTRY)}"
        ) from None
    field = _ROUND_CAPS.get(name)
    rounds = params.get(field) if field is not None else None
    if (
        isinstance(rounds, (int, float))
        and not isinstance(rounds, bool)
        and rounds > MAX_SERVED_ROUNDS
    ):
        raise ConfigError(
            f"{name} {field} must be <= {MAX_SERVED_ROUNDS} on /v1/simulate, "
            f"got {rounds}"
        )
    try:
        model = factory(**params)
    except TypeError as exc:
        raise ConfigError(f"bad parameters for model {name!r}: {exc}") from None
    trials = wire.optional_int(payload, "trials")
    _check_trials("trials", trials)
    rng = payload.get("rng", 0)
    if isinstance(rng, bool) or not isinstance(rng, int):
        raise WireFormatError("request field 'rng' must be an integer seed")
    out = api.simulate(graph, seeds, model=model, trials=trials, rng=rng)
    body: Dict[str, Any] = {
        "cache": {"graph": "hot" if graph_hot else "cold"},
        "worker": host.index,
    }
    if trials is None:
        body["result"] = out.to_json()
    else:
        body["results"] = [r.to_json() for r in out]
        body["trials"] = trials
    return body


def _handle_evaluate(
    host: WorkerHost, payload: Dict[str, Any], _body_key: Optional[str]
) -> Dict[str, Any]:
    from repro import api
    from repro.experiments.config import WorkloadConfig

    spec = wire.require(payload, "workload", dict)
    workload = config_from_dict(WorkloadConfig, spec)
    if not 0 < workload.scale <= MAX_SERVED_SCALE:
        raise ConfigError(
            f"workload scale must be in (0, {MAX_SERVED_SCALE}] on /v1/evaluate, "
            f"got {workload.scale}"
        )
    trials = wire.optional_int(payload, "trials")
    _check_trials("trials", trials)
    name = wire.detector_request(payload)
    config = _detector_config(name, payload.get("config"))
    aggregated = api.evaluate(
        name, workload, trials=3 if trials is None else trials, config=config
    )
    host.recorder.incr(f"detector.{name}.requests")
    return {
        "evaluation": dataclasses.asdict(aggregated),
        "detector": name,
        "worker": host.index,
    }


def _session_engine(host: WorkerHost, payload: Dict[str, Any]):
    name = wire.require(payload, "session", str)
    engine = host.sessions.get(name)
    if engine is None:
        raise SessionNotFoundError(name)
    return name, engine


def _handle_session_create(
    host: WorkerHost, payload: Dict[str, Any], _body_key: Optional[str]
) -> Dict[str, Any]:
    from repro.stream.engine import StreamingDetectionEngine

    name = wire.require(payload, "session", str)
    if name in host.sessions:
        raise SessionExistsError(name)
    graph = wire.graph_from_json(wire.require(payload, "graph", dict))
    detector_name = wire.detector_request(payload)
    config = _detector_config(detector_name, payload.get("config"))
    # copy=False: the decoded graph is already a private object.
    engine = StreamingDetectionEngine(
        graph, detector=resolve_detector(detector_name, config), copy=False
    )
    host.sessions[name] = engine
    host.recorder.incr("serve.sessions.created")
    return {
        "session": name,
        "detector": detector_name,
        "components": engine.component_count(),
        "nodes": engine.graph.number_of_nodes(),
        "worker": host.index,
    }


def _handle_session_delta(
    host: WorkerHost, payload: Dict[str, Any], _body_key: Optional[str]
) -> Dict[str, Any]:
    name, engine = _session_engine(host, payload)
    raw = wire.require(payload, "delta", dict)
    try:
        delta = SnapshotDelta.from_json(raw)
    except CacheCodecError as exc:
        raise WireFormatError(f"malformed delta payload: {exc}") from exc
    budget = wire.optional_int(payload, "budget")
    step = engine.step(delta, budget=budget)
    report = step.report
    return {
        "session": name,
        "result": step.result.to_json(),
        "report": {
            "delta_index": report.delta_index,
            "touched_nodes": report.touched_nodes,
            "invalidated_components": report.invalidated_components,
            "recomputed_components": report.recomputed_components,
            "total_components": report.total_components,
        },
        "reused_artifacts": step.reused_artifacts,
        "computed_artifacts": step.computed_artifacts,
        "worker": host.index,
    }


def _handle_session_info(
    host: WorkerHost, payload: Dict[str, Any], _body_key: Optional[str]
) -> Dict[str, Any]:
    name, engine = _session_engine(host, payload)
    return {
        "session": name,
        "components": engine.component_count(),
        "nodes": engine.graph.number_of_nodes(),
        "worker": host.index,
    }


def _handle_session_close(
    host: WorkerHost, payload: Dict[str, Any], _body_key: Optional[str]
) -> Dict[str, Any]:
    name, _ = _session_engine(host, payload)
    del host.sessions[name]
    host.recorder.incr("serve.sessions.closed")
    return {"session": name, "closed": True, "worker": host.index}


#: Request kind -> handler ``(host, payload, body_key)``; ``body_key`` is
#: the request's :attr:`ServeRequest.coalesce_key`.
HANDLERS: Dict[
    str, Callable[[WorkerHost, Dict[str, Any], Optional[str]], Dict[str, Any]]
] = {
    "detect": _handle_detect,
    "simulate": _handle_simulate,
    "evaluate": _handle_evaluate,
    "session.create": _handle_session_create,
    "session.delta": _handle_session_delta,
    "session.info": _handle_session_info,
    "session.close": _handle_session_close,
}


class WorkerPool:
    """The thread pool behind :class:`repro.serve.server.DetectionServer`."""

    def __init__(
        self,
        workers: int = 2,
        *,
        queue_size: int = 64,
        batch_max: int = 8,
        engine_cache: int = 8,
        retry_after: float = 1.0,
        cache_ttl_s: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.batch_max = max(1, batch_max)
        self.retry_after = retry_after
        #: Submit-side metrics (shed/enqueue counts, queue depth); only
        #: the submitting thread (the event loop) writes here.
        self.control = MetricsRecorder()
        self._hosts = [
            WorkerHost(i, engine_cache, cache_ttl_s=cache_ttl_s, clock=clock)
            for i in range(workers)
        ]
        self._queues: List["queue.Queue"] = [
            queue.Queue(maxsize=queue_size) for _ in range(workers)
        ]
        self._threads = [
            threading.Thread(
                target=self._run, args=(i,), name=f"repro-serve-{i}", daemon=True
            )
            for i in range(workers)
        ]
        self._inflight = 0
        self._cond = threading.Condition()
        self._closed = False
        for thread in self._threads:
            thread.start()

    # -- submission (event-loop thread) ---------------------------------

    def shard(self, key: str) -> int:
        """Stable affinity: the worker index a content key maps to."""
        digest = hashlib.blake2b(key.encode("utf-8"), digest_size=4).digest()
        return int.from_bytes(digest, "big") % self.workers

    def submit(
        self,
        kind: str,
        payload: Dict[str, Any],
        affinity: str,
        *,
        coalesce: Optional[str] = None,
    ) -> Tuple[int, Future]:
        """Enqueue a request on its affinity shard; never blocks.

        ``coalesce`` (the body digest of a stateless request, None for
        session traffic) groups byte-identical requests within a batch,
        and is the body key the handler's graph lookup tries first.

        Raises:
            ServerOverloadedError: shard queue full or pool shut down —
                the server turns this into 503 + ``Retry-After``.
        """
        if self._closed:
            raise ServerOverloadedError(
                "server is shutting down", retry_after=self.retry_after
            )
        index = self.shard(affinity)
        request = ServeRequest(
            kind=kind,
            payload=payload,
            future=Future(),
            enqueued_at=time.monotonic(),
            coalesce_key=coalesce,
        )
        try:
            self._queues[index].put_nowait(request)
        except queue.Full:
            self.control.incr("serve.shed")
            raise ServerOverloadedError(
                f"worker {index} queue is full "
                f"({self._queues[index].maxsize} requests pending)",
                retry_after=self.retry_after,
            ) from None
        with self._cond:
            self._inflight += 1
        request.future.add_done_callback(self._on_done)
        self.control.incr("serve.enqueued")
        self.control.gauge("serve.queue_depth", self.queue_depth())
        return index, request.future

    def _on_done(self, _future: Future) -> None:
        with self._cond:
            self._inflight -= 1
            self._cond.notify_all()

    def queue_depth(self) -> int:
        """Requests currently queued across all shards (approximate)."""
        return sum(q.qsize() for q in self._queues)

    def inflight(self) -> int:
        """Requests submitted but not yet resolved."""
        with self._cond:
            return self._inflight

    def session_count(self) -> int:
        """Live streaming sessions across all workers (approximate)."""
        return sum(len(host.sessions) for host in self._hosts)

    def drain(self, timeout: float) -> bool:
        """Block until every submitted request resolved (or timeout)."""
        deadline = time.monotonic() + timeout
        with self._cond:
            while self._inflight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._cond.wait(remaining)
        return True

    def shutdown(self) -> None:
        """Stop accepting work and join the worker threads."""
        if self._closed:
            return
        self._closed = True
        for q in self._queues:
            q.put(_SHUTDOWN)
        for thread in self._threads:
            thread.join(timeout=5.0)

    def metrics(self) -> Metrics:
        """Order-independent merge of every worker's private snapshot
        plus the submit-side control metrics."""
        merged = self.control.metrics.copy()
        for host in self._hosts:
            merged.merge_in_place(host.recorder.metrics)
        return merged

    # -- worker loop (one thread per shard) -----------------------------

    def _run(self, index: int) -> None:
        host = self._hosts[index]
        q = self._queues[index]
        while True:
            item = q.get()
            if item is _SHUTDOWN:
                break
            batch: List[ServeRequest] = [item]
            stop = False
            while len(batch) < self.batch_max:
                try:
                    extra = q.get_nowait()
                except queue.Empty:
                    break
                if extra is _SHUTDOWN:
                    stop = True
                    break
                batch.append(extra)
            host.recorder.gauge("serve.batch_size", len(batch))
            self._process_batch(host, batch)
            if stop:
                break

    def _process_batch(self, host: WorkerHost, batch: List[ServeRequest]) -> None:
        # Coalesce byte-identical requests: compute once, fan the result
        # out to every waiting future. Detection is deterministic, so
        # the shared answer is exactly what each caller would have got.
        groups: "OrderedDict[str, List[ServeRequest]]" = OrderedDict()
        for request in batch:
            key = request.coalesce_key or f"!{id(request)}"
            groups.setdefault(key, []).append(request)
        recorder = host.recorder
        for requests in groups.values():
            primary = requests[0]
            recorder.timing(
                "serve.queue_wait", time.monotonic() - primary.enqueued_at
            )
            if len(requests) > 1:
                recorder.incr("serve.coalesced", len(requests) - 1)
            # Claim each future; a False claim means the server already
            # abandoned it (timeout → future cancelled).
            live = [r for r in requests if r.future.set_running_or_notify_cancel()]
            abandoned = len(requests) - len(live)
            if abandoned:
                recorder.incr("serve.abandoned", abandoned)
            if not live:
                continue
            handler = HANDLERS.get(primary.kind)
            try:
                if handler is None:
                    raise WireFormatError(f"unknown request kind {primary.kind!r}")
                with using_recorder(recorder):
                    with recorder.span(f"serve.{primary.kind}"):
                        response = handler(
                            host, primary.payload, primary.coalesce_key
                        )
            except BaseException as exc:  # resolved, not raised: the future
                # carries it back, and the server counts the error it writes.
                for request in live:
                    request.future.set_exception(exc)
            else:
                recorder.incr("serve.requests")
                for request in live:
                    request.future.set_result(response)
