"""Detection-as-a-service: the asyncio HTTP front of :mod:`repro.serve`.

A deliberately small HTTP/1.1 server (stdlib ``asyncio`` streams, no
framework) that parses requests on the event loop and hands every
compute to the :class:`~repro.serve.pool.WorkerPool`. The loop thread
never runs detection — it parses, routes, awaits a future, serialises.

Endpoints (all bodies tagged ``repro.serve/v1``; see docs/serving.md):

    GET    /v1/health                  liveness + drain state
    GET    /v1/stats                   merged serve.* metrics snapshot
    POST   /v1/detect                  one-shot detection on a snapshot
    POST   /v1/simulate                diffusion cascade(s) on a graph
    POST   /v1/evaluate                trial-averaged detector scoring
    POST   /v1/sessions                open a named streaming session
    GET    /v1/sessions/{name}         session info
    POST   /v1/sessions/{name}/delta   apply one delta, re-detect
    DELETE /v1/sessions/{name}         close a session

Admission control and failure mapping live in the wire layer: a full
shard queue answers 503 with ``Retry-After``; a request that outlives
``timeout`` answers 504 (its future is cancelled, so the worker skips
the stale computation instead of wasting a warm engine on it);
:mod:`repro.errors` types map to 4xx/5xx via
:func:`repro.serve.wire.error_envelope`. Each read from a client is
bounded by :data:`READ_TIMEOUT_S` (a stalled request answers 408), and
every error envelope written counts as ``serve.errors`` and
``serve.errors.<type>``.

Shutdown is graceful by default: stop accepting, let queued work drain
(bounded by ``drain_timeout``), then join the workers.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import time
from typing import Any, Dict, Optional, Set, Tuple

from repro.errors import ConfigError, RequestTimeoutError, ServerOverloadedError
from repro.obs.metrics import Metrics, MetricsRecorder
from repro.serve import wire
from repro.serve.pool import WorkerPool

_MAX_HEADERS = 100

#: Seconds the server waits on each read from a client: the request
#: line, the header block, and the body. A connection that sends no
#: request line in that time is closed without a response; a request
#: that stalls in its headers or body answers 408 and is closed.
READ_TIMEOUT_S = 30.0

#: The POST routes that carry no state: they shard and coalesce on the
#: digest of the request body's bytes.
_STATELESS = ("detect", "simulate", "evaluate")


class _FramingError(Exception):
    """A request the Content-Length framing cannot read: answered with
    ``status`` and a ``RouteError`` envelope, then the connection closes."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


async def _read_headers(reader: asyncio.StreamReader) -> Dict[str, str]:
    """Up to ``_MAX_HEADERS`` header lines, then the blank line."""
    headers: Dict[str, str] = {}
    for _ in range(_MAX_HEADERS + 1):
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            return headers
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    raise _FramingError(431, f"more than {_MAX_HEADERS} header lines")


@dataclasses.dataclass
class ServeConfig:
    """Deployment knobs of :class:`DetectionServer`.

    Attributes:
        host: bind address.
        port: bind port; 0 picks an ephemeral port (read it back from
            :attr:`DetectionServer.port` — the test/bench default).
        workers: worker threads; also the number of affinity shards.
        queue_size: per-shard queue bound; beyond it requests shed 503.
        batch_max: max requests one worker drains per wakeup
            (micro-batch / coalescing window).
        engine_cache: decoded graphs and warm detectors kept per worker.
        cache_ttl_s: idle seconds before a per-worker cached graph or
            warm detector expires (lazily, on its next lookup — counted
            as ``serve.cache_expired``). ``None`` (default) never
            expires; LRU capacity still applies.
        timeout: seconds before an accepted request answers 504.
        retry_after: the ``Retry-After`` hint on shed responses.
        max_body: request-body byte cap (413 beyond it).
        drain_timeout: seconds graceful shutdown waits for queued work.
    """

    host: str = "127.0.0.1"
    port: int = 0
    workers: int = 2
    queue_size: int = 64
    batch_max: int = 8
    engine_cache: int = 8
    cache_ttl_s: Optional[float] = None
    timeout: float = 30.0
    retry_after: float = 1.0
    max_body: int = 32 * 1024 * 1024
    drain_timeout: float = 10.0

    def validate(self) -> None:
        """Raise :class:`ConfigError` on out-of-range settings."""
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.queue_size < 1:
            raise ConfigError(f"queue_size must be >= 1, got {self.queue_size}")
        if self.batch_max < 1:
            raise ConfigError(f"batch_max must be >= 1, got {self.batch_max}")
        if self.cache_ttl_s is not None and self.cache_ttl_s <= 0:
            raise ConfigError(
                f"cache_ttl_s must be > 0 or None, got {self.cache_ttl_s}"
            )
        if self.timeout <= 0:
            raise ConfigError(f"timeout must be > 0, got {self.timeout}")
        if self.max_body < 1024:
            raise ConfigError(f"max_body must be >= 1024, got {self.max_body}")


class DetectionServer:
    """The serving tier: asyncio front + warm worker pool."""

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        self.config.validate()
        #: Loop-thread metrics (request timings, timeout counts).
        self.control = MetricsRecorder()
        self.pool: Optional[WorkerPool] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._draining = False
        self._conn_tasks: Set[asyncio.Task] = set()
        self._started_at = 0.0

    # -- lifecycle -------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (resolves 0 → the ephemeral port chosen)."""
        if self._server is None or not self._server.sockets:
            return self.config.port
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        """Bind the listener and spin up the worker pool."""
        cfg = self.config
        self.pool = WorkerPool(
            cfg.workers,
            queue_size=cfg.queue_size,
            batch_max=cfg.batch_max,
            engine_cache=cfg.engine_cache,
            retry_after=cfg.retry_after,
            cache_ttl_s=cfg.cache_ttl_s,
        )
        self._server = await asyncio.start_server(
            self._handle_connection, host=cfg.host, port=cfg.port
        )
        self._started_at = time.monotonic()

    async def stop(self, drain: bool = True) -> None:
        """Graceful shutdown: stop accepting, drain, join workers."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self.pool is not None and drain:
            deadline = time.monotonic() + self.config.drain_timeout
            while self.pool.inflight() > 0 and time.monotonic() < deadline:
                await asyncio.sleep(0.02)
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        if self.pool is not None:
            self.pool.shutdown()

    def metrics(self) -> Metrics:
        """One merged snapshot: loop-side + every worker's metrics."""
        merged = self.control.metrics.copy()
        if self.pool is not None:
            merged.merge_in_place(self.pool.metrics())
        return merged

    # -- HTTP plumbing ---------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            await self._serve_connection(reader, writer)
        except (asyncio.CancelledError, asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        while True:
            try:
                request = await self._read_request(reader)
            except _FramingError as exc:
                await self._respond(
                    writer, *wire.route_error(exc.status, str(exc)), close=True
                )
                return
            if request is None:
                return
            method, target, headers, body = request
            keep_alive = (
                headers.get("connection", "").lower() != "close"
                and not self._draining
            )
            status, payload, extra = await self._dispatch(method, target, body)
            await self._respond(writer, status, payload, extra, close=not keep_alive)
            if not keep_alive:
                return

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        """Read one request: ``(method, target, headers, body)``, or None
        when the client closed, or sent no request line within
        :data:`READ_TIMEOUT_S`.

        Raises:
            _FramingError: a request that cannot be read (400, 408,
                413, 431, 501).
        """
        try:
            try:
                request_line = await asyncio.wait_for(reader.readline(), READ_TIMEOUT_S)
            except asyncio.TimeoutError:
                return None
            if not request_line:
                return None
            parts = request_line.decode("latin-1").strip().split()
            if len(parts) != 3:
                raise _FramingError(400, "malformed request line")
            method, target, _version = parts
            headers = await asyncio.wait_for(_read_headers(reader), READ_TIMEOUT_S)
            if "transfer-encoding" in headers:
                # Only Content-Length framing is implemented; reading a
                # chunked body as empty would desynchronise the connection.
                raise _FramingError(
                    501, "Transfer-Encoding is not supported; send Content-Length"
                )
            try:
                length = int(headers.get("content-length", "0"))
            except ValueError:
                length = -1
            if length < 0 or length > self.config.max_body:
                raise _FramingError(413, f"body exceeds {self.config.max_body} bytes")
            body = (
                await asyncio.wait_for(reader.readexactly(length), READ_TIMEOUT_S)
                if length
                else b""
            )
        except ValueError:
            # StreamReader.readline raises ValueError on a line longer
            # than the reader's limit (asyncio's default: 64 KiB).
            raise _FramingError(431, "request line or header line too long") from None
        except asyncio.TimeoutError:
            raise _FramingError(
                408, f"request not received within {READ_TIMEOUT_S:g}s"
            ) from None
        return method, target, headers, body

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Dict[str, Any],
        extra_headers: Dict[str, str],
        *,
        close: bool,
    ) -> None:
        if status >= 400:
            # Every error envelope the server writes counts here, once:
            # framing, routing and parse errors as well as worker errors.
            self.control.incr("serve.errors")
            self.control.incr(f"serve.errors.{payload['error']['type']}")
        blob = json.dumps(payload).encode("utf-8")
        lines = [
            f"HTTP/1.1 {status} {wire.reason(status)}",
            "Content-Type: application/json",
            f"Content-Length: {len(blob)}",
            f"Connection: {'close' if close else 'keep-alive'}",
        ]
        lines.extend(f"{name}: {value}" for name, value in extra_headers.items())
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        writer.write(head + blob)
        await writer.drain()

    # -- routing ---------------------------------------------------------

    def _route(
        self, method: str, path: str, body: bytes
    ) -> Tuple[str, Dict[str, Any], str, Optional[str]]:
        """Map an HTTP request to ``(kind, payload, affinity, coalesce)``.

        Stateless requests (detect/simulate/evaluate) shard and coalesce
        on the digest of their body bytes, which is also the first key of
        the worker's graph cache; only byte-identical bodies share it.
        Session requests never coalesce (each delta is a distinct state
        transition) and shard on the session name, so one session's whole
        lifetime stays on one worker.
        """
        segments = [s for s in path.split("/") if s]
        if (
            method == "POST"
            and len(segments) == 2
            and segments[0] == "v1"
            and segments[1] in _STATELESS
        ):
            payload = wire.parse_body(body)
            digest = wire.body_digest(body)
            return segments[1], payload, digest, digest
        if method == "POST" and segments == ["v1", "sessions"]:
            payload = wire.parse_body(body)
            name = wire.require(payload, "session", str)
            return "session.create", payload, f"session:{name}", None
        if len(segments) == 3 and segments[:2] == ["v1", "sessions"]:
            name = segments[2]
            if method == "GET":
                return "session.info", {"session": name}, f"session:{name}", None
            if method == "DELETE":
                return "session.close", {"session": name}, f"session:{name}", None
        if (
            len(segments) == 4
            and segments[:2] == ["v1", "sessions"]
            and segments[3] == "delta"
            and method == "POST"
        ):
            payload = wire.parse_body(body)
            payload["session"] = segments[2]
            return "session.delta", payload, f"session:{segments[2]}", None
        raise LookupError(f"no route for {method} {path}")

    async def _dispatch(
        self, method: str, target: str, body: bytes
    ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        path = target.split("?", 1)[0]
        if method == "GET" and path == "/v1/health":
            return 200, self._health(), {}
        if method == "GET" and path == "/v1/stats":
            return 200, self._stats(), {}
        start = time.perf_counter()
        try:
            if self._draining or self.pool is None:
                raise ServerOverloadedError(
                    "server is draining", retry_after=self.config.retry_after
                )
            try:
                kind, payload, affinity, coalesce = self._route(method, path, body)
            except LookupError as exc:
                return wire.route_error(404, str(exc))
            _, future = self.pool.submit(kind, payload, affinity, coalesce=coalesce)
            try:
                response = await asyncio.wait_for(
                    asyncio.wrap_future(future), timeout=self.config.timeout
                )
            except asyncio.TimeoutError:
                # wait_for cancelled the wrapper, which cancelled the
                # pool future: if the worker has not claimed it yet, the
                # stale computation is skipped entirely.
                self.control.incr("serve.timeouts")
                raise RequestTimeoutError(
                    f"request exceeded the {self.config.timeout:g}s server timeout"
                ) from None
            self.control.timing(f"serve.http.{kind}", time.perf_counter() - start)
            return 200, wire.envelope(response), {}
        except Exception as exc:  # noqa: BLE001 — every failure becomes an envelope
            return wire.error_envelope(exc)

    def _health(self) -> Dict[str, Any]:
        return wire.envelope(
            {
                "status": "draining" if self._draining else "ok",
                "workers": self.config.workers,
                "uptime": time.monotonic() - self._started_at,
            }
        )

    def _stats(self) -> Dict[str, Any]:
        snapshot = self.metrics()
        return wire.envelope(
            {
                "metrics": snapshot.to_dict(),
                "queue_depth": self.pool.queue_depth() if self.pool else 0,
                "inflight": self.pool.inflight() if self.pool else 0,
                "sessions": self.pool.session_count() if self.pool else 0,
            }
        )


# ---------------------------------------------------------------------------
# Embedding helpers (tests, benchmarks, notebooks)
# ---------------------------------------------------------------------------


class ServerHandle:
    """A server running on a background thread; context-manager friendly."""

    def __init__(self, server: DetectionServer, loop, thread) -> None:
        self.server = server
        self._loop = loop
        self._thread = thread

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def url(self) -> str:
        return f"http://{self.server.config.host}:{self.server.port}"

    def metrics(self) -> Metrics:
        return self.server.metrics()

    def stop(self, drain: bool = True) -> None:
        """Gracefully stop the server and join its thread."""
        if self._thread is None:
            return
        future = asyncio.run_coroutine_threadsafe(self.server.stop(drain), self._loop)
        try:
            future.result(timeout=self.server.config.drain_timeout + 10.0)
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=10.0)
            self._thread = None

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()


def start_in_thread(config: Optional[ServeConfig] = None) -> ServerHandle:
    """Run a :class:`DetectionServer` on a dedicated event-loop thread.

    The embedding entry point: binds (ephemeral port by default),
    returns once the listener is accepting. Use as a context manager::

        with start_in_thread() as handle:
            client = ServeClient(handle.url)
            ...
    """
    import threading

    server = DetectionServer(config)
    started = threading.Event()
    failure: Dict[str, BaseException] = {}
    holder: Dict[str, Any] = {}

    def _run() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        holder["loop"] = loop
        try:
            loop.run_until_complete(server.start())
        except BaseException as exc:  # surfaced to the caller below
            failure["exc"] = exc
            started.set()
            loop.close()
            return
        started.set()
        try:
            loop.run_forever()
        finally:
            loop.close()

    thread = threading.Thread(target=_run, name="repro-serve-loop", daemon=True)
    thread.start()
    if not started.wait(timeout=30.0):
        raise RuntimeError("serve event loop failed to start within 30s")
    if "exc" in failure:
        raise failure["exc"]
    return ServerHandle(server, holder["loop"], thread)
