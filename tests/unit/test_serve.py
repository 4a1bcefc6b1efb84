"""Unit tests for the serve worker pool: affinity, admission, batching.

Most of these drive :class:`repro.serve.pool.WorkerPool` directly (the
HTTP layer is covered by ``tests/integration/test_serve_identity``).
Controlled-latency handlers are injected through the HANDLERS registry
so queue pressure and coalescing windows are deterministic, not
timing-dependent. :class:`TestHttpFraming` speaks raw bytes to an
in-process server, for requests no well-behaved client would send.
"""

import http.client
import json
import socket
import threading
import time

import pytest

import repro
import repro.serve.server as server_module
from repro.codec import encode_graph
from repro.core.rid import RIDConfig
from repro.detectors import detector_config_to_json
from repro.errors import ConfigError, ServerOverloadedError, WireFormatError
from repro.serve import ServeClient, wire
from repro.serve.pool import BODY_KEYS_PER_GRAPH, HANDLERS, WorkerHost, WorkerPool
from repro.serve.server import _MAX_HEADERS, ServeConfig, start_in_thread
from repro.stream.synthetic import synthetic_snapshot


@pytest.fixture
def pool():
    p = WorkerPool(2, queue_size=4, batch_max=4)
    yield p
    p.shutdown()


@pytest.fixture
def blockable(monkeypatch):
    """Register a handler that blocks until released; returns the gate."""
    gate = threading.Event()

    def _blocked(host, payload, _body_key):
        gate.wait(timeout=10.0)
        return {"echo": payload.get("x"), "worker": host.index}

    monkeypatch.setitem(HANDLERS, "test.block", _blocked)
    return gate


class TestShardAffinity:
    def test_shard_is_stable_and_in_range(self, pool):
        for key in ("a", "b", "session:s1", wire.payload_digest({"g": 1})):
            first = pool.shard(key)
            assert first == pool.shard(key)
            assert 0 <= first < pool.workers

    def test_same_graph_lands_on_same_worker(self, pool):
        from repro.codec import encode_graph

        payload = {"graph": encode_graph(synthetic_snapshot(2, 6, seed=1))}
        digest = wire.payload_digest(payload)
        workers = set()
        for _ in range(3):
            index, future = pool.submit("detect", payload, digest)
            future.result(timeout=30.0)
            workers.add(index)
        assert len(workers) == 1


class TestAdmissionControl:
    def test_full_queue_sheds_with_retry_after(self, blockable):
        pool = WorkerPool(1, queue_size=2, batch_max=1, retry_after=2.0)
        try:
            _, running = pool.submit("test.block", {"x": 0}, "key")
            deadline = time.monotonic() + 5.0
            while pool.queue_depth() > 0 and time.monotonic() < deadline:
                time.sleep(0.005)  # worker picks up the blocker
            for i in (1, 2):  # fill the bounded queue
                pool.submit("test.block", {"x": i}, "key")
            with pytest.raises(ServerOverloadedError) as info:
                pool.submit("test.block", {"x": 3}, "key")
            assert info.value.retry_after == 2.0
            assert pool.control.metrics.counters["serve.shed"] == 1.0
            blockable.set()
            assert running.result(timeout=10.0)["echo"] == 0
        finally:
            blockable.set()
            pool.shutdown()

    def test_submit_after_shutdown_sheds(self, pool):
        pool.shutdown()
        with pytest.raises(ServerOverloadedError, match="shutting down"):
            pool.submit("detect", {}, "key")


class TestCoalescing:
    def test_identical_requests_compute_once(self, blockable, monkeypatch):
        calls = []

        def _counting(host, payload, _body_key):
            calls.append(payload["x"])
            blockable.wait(timeout=10.0)
            return {"echo": payload["x"]}

        monkeypatch.setitem(HANDLERS, "test.count", _counting)
        pool = WorkerPool(1, queue_size=16, batch_max=8)
        try:
            # The first request occupies the worker; the rest queue up
            # and arrive in one batch where the duplicates coalesce.
            _, first = pool.submit("test.block", {"x": "warm"}, "key")
            time.sleep(0.05)
            futures = [
                pool.submit("test.count", {"x": 9}, "key", coalesce="same")[1]
                for _ in range(4)
            ]
            blockable.set()
            results = [f.result(timeout=10.0) for f in futures]
            assert first.result(timeout=10.0)["echo"] == "warm"
            assert all(r == {"echo": 9} for r in results)
            assert len(calls) == 1
            merged = pool.metrics()
            assert merged.counters["serve.coalesced"] == 3.0
        finally:
            pool.shutdown()

    def test_uncoalesced_requests_each_compute(self, pool):
        from repro.codec import encode_graph

        payload = {"graph": encode_graph(synthetic_snapshot(2, 6, seed=1))}
        digest = wire.payload_digest(payload)
        futures = [
            pool.submit("detect", payload, digest, coalesce=None)[1] for _ in range(3)
        ]
        results = [f.result(timeout=30.0) for f in futures]
        assert len({id(r) for r in results}) == 3


class TestAbandonedRequests:
    def test_cancelled_future_is_skipped_not_computed(self, blockable, monkeypatch):
        computed = []

        def _tracking(host, payload, _body_key):
            computed.append(payload["x"])
            return {"echo": payload["x"]}

        monkeypatch.setitem(HANDLERS, "test.track", _tracking)
        pool = WorkerPool(1, queue_size=8, batch_max=1)
        try:
            _, first = pool.submit("test.block", {"x": 0}, "key")
            time.sleep(0.05)
            _, doomed = pool.submit("test.track", {"x": "doomed"}, "key")
            _, kept = pool.submit("test.track", {"x": "kept"}, "key")
            assert doomed.cancel()  # the server's timeout path
            blockable.set()
            assert kept.result(timeout=10.0)["echo"] == "kept"
            assert computed == ["kept"]
            assert pool.metrics().counters["serve.abandoned"] == 1.0
        finally:
            blockable.set()
            pool.shutdown()


class TestWarmCaches:
    def test_graph_and_engine_go_hot_on_second_request(self, pool):
        from repro.codec import encode_graph

        payload = {"graph": encode_graph(synthetic_snapshot(3, 8, seed=2))}
        digest = wire.payload_digest(payload)
        _, cold = pool.submit("detect", payload, digest)
        first = cold.result(timeout=30.0)
        assert first["cache"]["graph"] == "cold"
        assert first["cache"]["engine"] == "cold"
        assert first["cache"]["computed_artifacts"] > 0
        _, warm = pool.submit("detect", payload, digest)
        second = warm.result(timeout=30.0)
        assert second["cache"]["graph"] == "hot"
        assert second["cache"]["engine"] == "hot"
        assert second["cache"]["computed_artifacts"] == 0
        assert second["cache"]["reused_artifacts"] == first["cache"]["computed_artifacts"]
        assert second["result"] == first["result"]

    def test_engine_cache_is_lru_bounded(self):
        pool = WorkerPool(1, queue_size=16, engine_cache=1)
        try:
            from repro.codec import encode_graph

            payload = {"graph": encode_graph(synthetic_snapshot(2, 6, seed=3))}
            digest = wire.payload_digest(payload)
            for beta in (0.1, 0.2, 0.1):  # 0.1's detector evicted by 0.2
                body = dict(payload, config={"beta": beta})
                _, fut = pool.submit("detect", body, digest)
                fut.result(timeout=30.0)
            counters = pool.metrics().counters
            assert counters["serve.engine_cache.misses"] == 3.0
        finally:
            pool.shutdown()


class TestErrorsTravelThroughFutures:
    def test_handler_error_resolves_the_future(self, pool):
        _, fut = pool.submit("detect", {"graph": "nope"}, "key")
        with pytest.raises(WireFormatError):
            fut.result(timeout=10.0)
        # Workers count no errors: the server counts each error envelope
        # it writes, once (TestErrorCounters).
        assert "serve.errors" not in pool.metrics().counters

    def test_unknown_kind_is_a_wire_error(self, pool):
        _, fut = pool.submit("test.nope", {}, "key")
        with pytest.raises(WireFormatError, match="unknown request kind"):
            fut.result(timeout=10.0)


class TestDrain:
    def test_drain_waits_for_inflight_work(self, blockable):
        pool = WorkerPool(1, queue_size=4, batch_max=1)
        try:
            _, fut = pool.submit("test.block", {"x": 1}, "key")
            assert not pool.drain(timeout=0.1)
            blockable.set()
            assert pool.drain(timeout=10.0)
            assert fut.done()
            assert pool.inflight() == 0
        finally:
            blockable.set()
            pool.shutdown()


class TestMetricsMerge:
    def test_worker_metrics_fold_into_one_snapshot(self, pool):
        from repro.codec import encode_graph

        for seed in (1, 2, 3):
            payload = {"graph": encode_graph(synthetic_snapshot(2, 6, seed=seed))}
            digest = wire.payload_digest(payload)
            _, fut = pool.submit("detect", payload, digest)
            fut.result(timeout=30.0)
        merged = pool.metrics()
        assert merged.counters["serve.requests"] == 3.0
        assert merged.counters["serve.enqueued"] == 3.0
        assert "serve.queue_wait" in merged.timers
        assert "rid.trees" in merged.counters  # pipeline counters flow too


class TestServeConfigValidation:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"workers": 0}, "workers must be >= 1"),
            ({"queue_size": 0}, "queue_size must be >= 1"),
            ({"batch_max": 0}, "batch_max must be >= 1"),
            ({"timeout": 0.0}, "timeout must be > 0"),
            ({"max_body": 10}, "max_body must be >= 1024"),
        ],
    )
    def test_out_of_range_settings(self, kwargs, message):
        with pytest.raises(ConfigError, match=message):
            ServeConfig(**kwargs).validate()

    def test_defaults_validate(self):
        ServeConfig().validate()


class TestSessionHandlers:
    def test_session_lifecycle_on_one_worker(self, pool):
        from repro.codec import encode_graph
        from repro.stream.synthetic import synthetic_stream

        snapshot, deltas = synthetic_stream(components=3, size=8, deltas=2, seed=5)
        key = "session:lifecycle"
        create = {"session": "lifecycle", "graph": encode_graph(snapshot)}
        _, fut = pool.submit("session.create", create, key)
        info = fut.result(timeout=30.0)
        assert info["components"] >= 1
        for delta in deltas:
            body = {"session": "lifecycle", "delta": delta.to_json()}
            _, fut = pool.submit("session.delta", body, key)
            step = fut.result(timeout=30.0)
            assert step["result"]["format"] == "repro.detection-result/v1"
            assert step["report"]["total_components"] >= 1
        assert pool.session_count() == 1
        _, fut = pool.submit("session.close", {"session": "lifecycle"}, key)
        assert fut.result(timeout=30.0)["closed"] is True
        assert pool.session_count() == 0

    def test_duplicate_and_missing_sessions(self, pool):
        from repro.errors import SessionExistsError, SessionNotFoundError
        from repro.codec import encode_graph

        snapshot = synthetic_snapshot(2, 6, seed=6)
        key = "session:dup"
        create = {"session": "dup", "graph": encode_graph(snapshot)}
        pool.submit("session.create", create, key)[1].result(timeout=30.0)
        _, fut = pool.submit("session.create", create, key)
        with pytest.raises(SessionExistsError):
            fut.result(timeout=30.0)
        _, fut = pool.submit("session.delta", {"session": "ghost", "delta": {}}, key)
        with pytest.raises(SessionNotFoundError):
            fut.result(timeout=30.0)


class TestConfigOnTheWireMatters:
    def test_config_changes_the_detector(self, pool):
        from repro.codec import encode_graph

        payload = {"graph": encode_graph(synthetic_snapshot(3, 10, seed=7))}
        digest = wire.payload_digest(payload)
        default = pool.submit("detect", payload, digest)[1].result(timeout=30.0)
        heavy = dict(payload, config=detector_config_to_json(RIDConfig(beta=5.0)))
        penalised = pool.submit("detect", heavy, digest)[1].result(timeout=30.0)
        assert len(penalised["result"]["initiators"]) <= len(
            default["result"]["initiators"]
        )


class TestNamedDetectorRouting:
    def _detect(self, pool, payload):
        digest = wire.payload_digest(payload)
        return pool.submit("detect", payload, digest)[1].result(timeout=30.0)

    def test_default_detector_is_rid(self, pool):
        from repro.codec import encode_graph

        payload = {"graph": encode_graph(synthetic_snapshot(2, 8, seed=8))}
        body = self._detect(pool, payload)
        assert body["detector"] == "rid"
        assert body["result"]["method"].startswith("rid")
        # RID is built through the registry like every other name.
        assert pool.metrics().counters["detector.resolved.rid"] == 1.0

    def test_named_detector_travels(self, pool):
        from repro.codec import encode_graph

        payload = {
            "graph": encode_graph(synthetic_snapshot(2, 8, seed=8)),
            "detector": "jordan-center",
        }
        body = self._detect(pool, payload)
        assert body["detector"] == "jordan_center"
        assert body["result"]["method"] == "jordan-center"
        assert pool.metrics().counters["detector.jordan_center.requests"] == 1.0

    def test_tier_routing(self, pool):
        from repro.detectors.registry import TIER_ROUTING
        from repro.codec import encode_graph

        graph = encode_graph(synthetic_snapshot(2, 8, seed=8))
        fast = self._detect(pool, {"graph": graph, "tier": "fast"})
        assert fast["detector"] == TIER_ROUTING["fast"]
        accurate = self._detect(pool, {"graph": graph, "tier": "accurate"})
        assert accurate["detector"] == TIER_ROUTING["accurate"]

    def test_detector_and_tier_conflict(self, pool):
        from repro.codec import encode_graph

        payload = {
            "graph": encode_graph(synthetic_snapshot(2, 6, seed=8)),
            "detector": "rid",
            "tier": "fast",
        }
        _, fut = pool.submit("detect", payload, wire.payload_digest(payload))
        with pytest.raises(ConfigError, match="mutually exclusive"):
            fut.result(timeout=30.0)

    def test_unknown_tier_and_detector(self, pool):
        from repro.codec import encode_graph

        graph = encode_graph(synthetic_snapshot(2, 6, seed=8))
        _, fut = pool.submit("detect", {"graph": graph, "tier": "turbo"}, "k1")
        with pytest.raises(ConfigError, match="unknown tier"):
            fut.result(timeout=30.0)
        _, fut = pool.submit("detect", {"graph": graph, "detector": "louvain"}, "k2")
        with pytest.raises(ConfigError, match="unknown detector"):
            fut.result(timeout=30.0)

    def test_named_config_separates_warm_instances(self, pool):
        from repro.codec import encode_graph

        graph = encode_graph(synthetic_snapshot(2, 8, seed=9))
        base = {"graph": graph, "detector": "map_suspect", "config": {"trials": 2}}
        self._detect(pool, base)
        warm = self._detect(pool, base)
        assert warm["cache"]["engine"] == "hot"
        other = dict(base, config={"trials": 3})
        cold = self._detect(pool, other)
        assert cold["cache"]["engine"] == "cold"

    def test_session_accepts_named_detector(self, pool):
        from repro.codec import encode_graph

        snapshot = synthetic_snapshot(2, 6, seed=10)
        key = "session:named"
        create = {
            "session": "named",
            "graph": encode_graph(snapshot),
            "detector": "distance_center",
        }
        info = pool.submit("session.create", create, key)[1].result(timeout=30.0)
        assert info["detector"] == "distance_center"


class TestCacheTTL:
    """Satellite: idle entries expire lazily, hits refresh the clock."""

    def host(self, ttl):
        from repro.serve.pool import WorkerHost

        clock = {"now": 100.0}
        host = WorkerHost(0, 8, cache_ttl_s=ttl, clock=lambda: clock["now"])
        return host, clock

    def graph_payload(self):
        from repro.codec import encode_graph

        payload = encode_graph(synthetic_snapshot(2, 6, seed=11))
        return wire.payload_digest({"graph": payload}), payload

    def test_idle_graph_expires(self):
        host, clock = self.host(ttl=10.0)
        key, payload = self.graph_payload()
        _, hot = host.graph(key, payload)
        assert hot is False
        clock["now"] += 11.0
        _, hot = host.graph(key, payload)
        assert hot is False  # expired, rebuilt cold
        assert host.recorder.metrics.counters["serve.cache_expired"] == 1.0

    def test_hit_refreshes_the_idle_clock(self):
        host, clock = self.host(ttl=10.0)
        key, payload = self.graph_payload()
        host.graph(key, payload)
        for _ in range(3):
            clock["now"] += 6.0  # each hit inside the ttl window
            _, hot = host.graph(key, payload)
            assert hot is True
        assert "serve.cache_expired" not in host.recorder.metrics.counters

    def test_idle_detector_expires_and_rebuilds(self):
        host, clock = self.host(ttl=5.0)
        _, hot = host.detector("jordan_center", None)
        assert hot is False
        clock["now"] += 2.0
        _, hot = host.detector("jordan_center", None)
        assert hot is True
        clock["now"] += 6.0
        _, hot = host.detector("jordan_center", None)
        assert hot is False
        assert host.recorder.metrics.counters["serve.cache_expired"] == 1.0

    def test_no_ttl_means_no_expiry(self):
        host, clock = self.host(ttl=None)
        key, payload = self.graph_payload()
        host.graph(key, payload)
        clock["now"] += 1e9
        _, hot = host.graph(key, payload)
        assert hot is True

    def test_serve_config_validates_ttl(self):
        with pytest.raises(ConfigError, match="cache_ttl_s must be > 0"):
            ServeConfig(cache_ttl_s=0.0).validate()
        ServeConfig(cache_ttl_s=30.0).validate()

    def test_pool_threads_ttl_to_hosts(self):
        clock = {"now": 0.0}
        pool = WorkerPool(1, queue_size=8, cache_ttl_s=5.0, clock=lambda: clock["now"])
        try:
            from repro.codec import encode_graph

            payload = {"graph": encode_graph(synthetic_snapshot(2, 6, seed=12))}
            digest = wire.payload_digest(payload)
            pool.submit("detect", payload, digest)[1].result(timeout=30.0)
            clock["now"] += 60.0
            body = pool.submit("detect", payload, digest)[1].result(timeout=30.0)
            assert body["cache"]["graph"] == "cold"
            assert body["cache"]["engine"] == "cold"
            assert pool.metrics().counters["serve.cache_expired"] == 2.0
        finally:
            pool.shutdown()


@pytest.fixture(scope="class")
def server():
    with start_in_thread(ServeConfig(workers=1)) as handle:
        yield handle


def exchange(port, request):
    """Send raw request bytes; read until the server closes the socket."""
    received = b""
    with socket.create_connection(("127.0.0.1", port), timeout=10.0) as sock:
        sock.sendall(request)
        while True:
            try:
                chunk = sock.recv(65536)
            except ConnectionResetError:
                break
            if not chunk:
                break
            received += chunk
    return received


class TestHttpFraming:
    """Requests the Content-Length framing cannot read: one error, then close."""

    def assert_single_closing_response(self, response, status):
        assert response.startswith(f"HTTP/1.1 {status} ".encode())
        assert response.count(b"HTTP/1.1 ") == 1
        assert b"Connection: close" in response

    def test_line_longer_than_reader_limit_is_431(self, server):
        request = b"GET /v1/health?pad=" + b"x" * (70 * 1024) + b" HTTP/1.1\r\n\r\n"
        self.assert_single_closing_response(exchange(server.port, request), 431)

    def test_header_longer_than_reader_limit_is_431(self, server):
        request = (
            b"GET /v1/health HTTP/1.1\r\nX-Pad: " + b"x" * (70 * 1024) + b"\r\n\r\n"
        )
        self.assert_single_closing_response(exchange(server.port, request), 431)

    def test_too_many_header_lines_is_431(self, server):
        def request(lines):
            headers = b"".join(b"X-H%d: v\r\n" % i for i in range(lines))
            return b"GET /v1/health HTTP/1.1\r\n" + headers + b"Connection: close\r\n\r\n"

        # _MAX_HEADERS lines (the Connection header included) still parse.
        ok = exchange(server.port, request(_MAX_HEADERS - 1))
        assert ok.startswith(b"HTTP/1.1 200 ")
        assert ok.count(b"HTTP/1.1 ") == 1
        self.assert_single_closing_response(exchange(server.port, request(_MAX_HEADERS)), 431)

    def test_chunked_body_is_501(self, server):
        body = b'{"graph": {}}'
        request = (
            b"POST /v1/detect HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
            + b"%x\r\n" % len(body) + body + b"\r\n0\r\n\r\n"
        )
        self.assert_single_closing_response(exchange(server.port, request), 501)

    @pytest.fixture
    def read_limit(self, monkeypatch):
        monkeypatch.setattr(server_module, "READ_TIMEOUT_S", 0.3)

    def test_silent_client_is_closed_without_a_response(self, server, read_limit):
        assert exchange(server.port, b"") == b""

    def test_stalled_header_is_408(self, server, read_limit):
        request = b"GET /v1/health HTTP/1.1\r\nX-Pad: 1\r\n"
        self.assert_single_closing_response(exchange(server.port, request), 408)

    def test_stalled_body_is_408(self, server, read_limit):
        request = b"POST /v1/detect HTTP/1.1\r\nContent-Length: 100\r\n\r\n" + b"x" * 10
        self.assert_single_closing_response(exchange(server.port, request), 408)

    def test_keep_alive_requests_spaced_under_the_limit_share_a_connection(
        self, server, monkeypatch
    ):
        # Three requests 0.3 s apart: the connection outlives the 0.5 s
        # limit, because the limit bounds each read, not the connection.
        monkeypatch.setattr(server_module, "READ_TIMEOUT_S", 0.5)
        with socket.create_connection(("127.0.0.1", server.port), timeout=10.0) as sock:
            stream = sock.makefile("rb")
            for _ in range(3):
                time.sleep(0.3)
                sock.sendall(b"GET /v1/health HTTP/1.1\r\n\r\n")
                status_line = stream.readline()
                headers = {}
                for line in iter(stream.readline, b"\r\n"):
                    name, _, value = line.decode("latin-1").partition(":")
                    headers[name.strip().lower()] = value.strip()
                body = json.loads(stream.read(int(headers["content-length"])))
                assert status_line.startswith(b"HTTP/1.1 200 ")
                assert headers["connection"] == "keep-alive"
                assert body["status"] == "ok"

    def test_client_reconnects_after_an_idle_close(self, server, monkeypatch):
        monkeypatch.setattr(server_module, "READ_TIMEOUT_S", 0.2)
        with ServeClient(server.url, timeout=10.0) as client:
            assert client.health()["status"] == "ok"
            time.sleep(0.5)  # the server closes the idle keep-alive connection
            assert client.health()["status"] == "ok"


def post(port, route, raw):
    """POST raw body bytes; returns ``(status, decoded body)``."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("POST", route, body=raw)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def detect_body(graph, **fields):
    """A ``/v1/detect`` body as :class:`ServeClient` writes it."""
    return json.dumps(wire.envelope(dict(graph=encode_graph(graph), **fields))).encode()


def canonical(payload):
    return json.dumps(payload, sort_keys=True)


@pytest.fixture
def digest_calls(monkeypatch):
    """Count calls to the canonical payload digest."""
    calls = []
    original = wire.payload_digest

    def _counting(payload):
        calls.append(payload)
        return original(payload)

    monkeypatch.setattr(wire, "payload_digest", _counting)
    return calls


class TestTwoKeyGraphCache:
    """Decoded graphs are found by the request body's digest first, then
    by the graph payload's canonical digest."""

    @pytest.fixture
    def served(self):
        with start_in_thread(ServeConfig(workers=1)) as handle:
            yield handle

    def test_byte_identical_repeat_computes_no_canonical_digest(self, served, digest_calls):
        graph = synthetic_snapshot(3, 8, seed=2)
        raw = detect_body(graph)
        status, first = post(served.port, "/v1/detect", raw)
        assert status == 200 and first["cache"]["graph"] == "cold"
        del digest_calls[:]
        status, repeat = post(served.port, "/v1/detect", raw)
        assert status == 200
        assert digest_calls == []
        assert repeat["cache"]["graph"] == "hot"
        assert canonical(repeat["result"]) == canonical(repro.detect(graph).to_json())

    def test_reordered_body_is_graph_hot_through_the_canonical_key(
        self, served, digest_calls
    ):
        def reversed_keys(value):
            if isinstance(value, dict):
                return {k: reversed_keys(v) for k, v in reversed(list(value.items()))}
            return value

        graph = synthetic_snapshot(3, 8, seed=4)
        payload = wire.envelope({"graph": encode_graph(graph)})
        raw, reordered = json.dumps(payload).encode(), json.dumps(reversed_keys(payload)).encode()
        assert raw != reordered and json.loads(raw) == json.loads(reordered)
        status, first = post(served.port, "/v1/detect", raw)
        assert status == 200 and first["cache"]["graph"] == "cold"
        del digest_calls[:]
        status, second = post(served.port, "/v1/detect", reordered)
        assert status == 200
        assert second["cache"]["graph"] == "hot"
        assert len(digest_calls) == 1  # the new body's one canonical digest
        assert canonical(second["result"]) == canonical(first["result"])
        assert canonical(second["result"]) == canonical(repro.detect(graph).to_json())

    def test_new_budget_on_a_known_graph_is_graph_hot(self, served):
        graph = synthetic_snapshot(3, 8, seed=6)
        assert post(served.port, "/v1/detect", detect_body(graph))[0] == 200
        status, budgeted = post(served.port, "/v1/detect", detect_body(graph, budget=5))
        assert status == 200
        assert budgeted["cache"]["graph"] == "hot"
        assert canonical(budgeted["result"]) == canonical(
            repro.detect(graph, budget=5).to_json()
        )

    def test_expiry_counts_once_per_graph_not_per_key(self):
        clock = {"now": 0.0}
        host = WorkerHost(0, 8, cache_ttl_s=10.0, clock=lambda: clock["now"])
        payload = encode_graph(synthetic_snapshot(2, 6, seed=11))
        assert host.graph("body-a", payload)[1] is False
        assert host.graph("body-b", payload)[1] is True  # through the canonical key
        clock["now"] += 11.0
        assert host.graph("body-a", payload)[1] is False  # expired, rebuilt cold
        assert host.graph("body-b", payload)[1] is True
        counters = host.recorder.metrics.counters
        assert counters["serve.cache_expired"] == 1.0
        assert counters["serve.graph_cache.misses"] == 2.0
        assert counters["serve.graph_cache.hits"] == 2.0

    def test_more_configs_than_engine_cache_decode_the_graph_once(self, monkeypatch):
        decodes = []
        original = wire.graph_from_json
        monkeypatch.setattr(
            wire, "graph_from_json", lambda payload: decodes.append(1) or original(payload)
        )
        pool = WorkerPool(1, queue_size=16, engine_cache=2)
        try:
            graph = encode_graph(synthetic_snapshot(2, 6, seed=3))
            for beta in (0.1, 0.2, 0.3, 0.4):
                payload = wire.envelope({"graph": graph, "config": {"beta": beta}})
                key = wire.body_digest(json.dumps(payload).encode())
                pool.submit("detect", payload, key, coalesce=key)[1].result(timeout=30.0)
            counters = pool.metrics().counters
        finally:
            pool.shutdown()
        assert len(decodes) == 1
        assert counters["serve.graph_cache.misses"] == 1.0
        assert counters["serve.graph_cache.hits"] == 3.0
        assert counters["serve.engine_cache.misses"] == 4.0

    def test_body_keys_are_bounded_pointers(self, digest_calls):
        host = WorkerHost(0, 1)
        payload = encode_graph(synthetic_snapshot(2, 6, seed=12))
        for i in range(BODY_KEYS_PER_GRAPH + 1):
            host.graph(f"body-{i}", payload)
        del digest_calls[:]
        assert host.graph(f"body-{BODY_KEYS_PER_GRAPH}", payload)[1] is True
        assert digest_calls == []  # still remembered
        assert host.graph("body-0", payload)[1] is True
        assert len(digest_calls) == 1  # the oldest pointer was dropped
        assert host.recorder.metrics.counters["serve.graph_cache.misses"] == 1.0


class TestErrorCounters:
    """Every error envelope the server writes counts once in /v1/stats,
    as ``serve.errors`` and ``serve.errors.<type>``."""

    def test_parse_route_and_framing_errors_are_counted_by_type(self):
        with start_in_thread(ServeConfig(workers=1)) as handle:
            status, envelope = post(handle.port, "/v1/detect", b"not json")
            assert (status, envelope["error"]["type"]) == (400, "WireFormatError")
            status, envelope = post(handle.port, "/v2/detect", b"{}")
            assert (status, envelope["error"]["type"]) == (404, "RouteError")
            chunked = b"POST /v1/detect HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n"
            assert exchange(handle.port, chunked).startswith(b"HTTP/1.1 501 ")
            with ServeClient(handle.url) as client:
                counters = client.stats()["metrics"]["counters"]
        assert counters["serve.errors.WireFormatError"] == 1.0
        assert counters["serve.errors.RouteError"] == 2.0
        assert counters["serve.errors"] == 3.0

    def test_worker_error_counts_once(self):
        with start_in_thread(ServeConfig(workers=1)) as handle:
            raw = json.dumps(wire.envelope({"graph": "nope"})).encode()
            status, envelope = post(handle.port, "/v1/detect", raw)
            assert (status, envelope["error"]["type"]) == (400, "WireFormatError")
            with ServeClient(handle.url) as client:
                counters = client.stats()["metrics"]["counters"]
        assert counters["serve.errors"] == 1.0
        assert counters["serve.errors.WireFormatError"] == 1.0
