#!/usr/bin/env python
"""Benchmark the serving tier: latency, throughput, cold vs warm cache.

Starts a real :class:`~repro.serve.server.DetectionServer` on a
background thread and drives it over loopback HTTP with the stdlib
client, measuring end-to-end request latency (client send → decoded
response):

* **cold** — every request carries a graph the server has never seen:
  the worker decodes it, builds a detector, and runs the full
  Prune→Components→Arborescence→TreeDP pipeline;
* **warm** — the same graph repeatedly: shard affinity routes it to the
  worker that already holds the decoded graph and a hot artifact cache,
  so the pipeline collapses to cache lookups plus serialisation;
* **throughput** — several client threads hammering the warm path
  concurrently (micro-batching + coalescing territory).

Every response is checked bit-identical against the direct library call
before any timing is trusted. Full mode asserts **warm p50 ≥ 3x better
than cold p50** and writes ``BENCH_serve.json``:

    PYTHONPATH=src python benchmarks/bench_serve.py

``--tiny`` is the CI gate: a seconds-scale run (small graphs, few
requests) that checks identity — served detect (cold and warm; a
byte-identical repeat of one body, which must find its graph hot, and
a key-reordered copy of it), a streamed session, and an error envelope
— with no timing assertions (CI boxes are noisy).
"""

from __future__ import annotations

import argparse
import http.client
import json
import threading
import time

import repro
from _harness import Gate, canonical, timed
from repro.codec import encode_graph
from repro.errors import ConfigError
from repro.serve import ServeClient, ServeConfig, start_in_thread, wire
from repro.stream import StreamingDetectionEngine, synthetic_snapshot, synthetic_stream


def percentile(samples, q: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[index]


def check_identity(client: ServeClient, graph) -> None:
    """One served detect must be bit-identical to the direct call."""
    direct = repro.detect(graph)
    payload = client.detect(graph, raw=True)
    if canonical(payload["result"]) != canonical(direct.to_json()):
        raise AssertionError("served response diverged from the direct call")


def post_detect(client: ServeClient, raw: bytes):
    """POST raw ``/v1/detect`` body bytes; the decoded 200 payload."""
    conn = http.client.HTTPConnection(client.host, client.port, timeout=client.timeout)
    try:
        conn.request("POST", "/v1/detect", body=raw)
        response = conn.getresponse()
        payload = json.loads(response.read())
    finally:
        conn.close()
    if response.status != 200:
        raise AssertionError(f"detect answered HTTP {response.status}: {payload}")
    return payload


def check_repeat_identity(client: ServeClient, graph) -> None:
    """One detect body, its byte-identical repeat and a key-reordered copy
    must all serve the direct result; the repeat must find its graph hot."""

    def reordered(value):
        if isinstance(value, dict):
            return {key: reordered(value[key]) for key in reversed(list(value))}
        return value

    direct = canonical(repro.detect(graph).to_json())
    payload = wire.envelope({"graph": encode_graph(graph)})
    raw = json.dumps(payload).encode("utf-8")
    shuffled = json.dumps(reordered(payload)).encode("utf-8")
    served = {label: post_detect(client, body)
              for label, body in (("first", raw), ("repeat", raw), ("reordered", shuffled))}
    for label, response in served.items():
        if canonical(response["result"]) != direct:
            raise AssertionError(f"{label} served response diverged from the direct call")
    if served["repeat"]["cache"]["graph"] != "hot":
        raise AssertionError("a byte-identical repeat did not find its graph hot")


def timed_detect(client: ServeClient, graph) -> float:
    return timed(client.detect, graph, raw=True)[0]


def bench_cold(client: ServeClient, components: int, size: int, n: int):
    """n never-seen-before graphs, one request each (every one compiles)."""
    latencies = []
    for i in range(n):
        graph = synthetic_snapshot(components, size, seed=1000 + i)
        check_identity(client, graph)  # identity first, on a fresh twin
        fresh = synthetic_snapshot(components, size, seed=5000 + i)
        latencies.append(timed_detect(client, fresh))
    return latencies


def bench_warm(client: ServeClient, graph, n: int):
    """The same graph n times after one priming request."""
    check_identity(client, graph)
    timed_detect(client, graph)  # prime: compile once
    return [timed_detect(client, graph) for _ in range(n)]


def bench_throughput(url: str, graph, threads: int, per_thread: int):
    """Concurrent warm-path clients; returns (requests/sec, errors)."""
    errors = []
    barrier = threading.Barrier(threads + 1)

    def _hammer():
        with ServeClient(url, timeout=120.0) as client:
            client.detect(graph, raw=True)  # own keep-alive connection, warm
            barrier.wait()
            for _ in range(per_thread):
                try:
                    client.detect(graph, raw=True)
                except Exception as exc:  # noqa: BLE001 — recorded, not fatal
                    errors.append(repr(exc))

    workers = [threading.Thread(target=_hammer) for _ in range(threads)]
    for worker in workers:
        worker.start()
    barrier.wait()
    start = time.perf_counter()
    for worker in workers:
        worker.join()
    elapsed = time.perf_counter() - start
    return (threads * per_thread) / elapsed, errors


def check_stream_identity(client: ServeClient, deltas_n: int) -> int:
    """A served session must match a local engine delta-for-delta."""
    snapshot, deltas = synthetic_stream(components=4, size=10, deltas=deltas_n, seed=3)
    local = StreamingDetectionEngine(snapshot)
    checked = 0
    with client.open_session("bench-stream", snapshot) as session:
        for delta in deltas:
            remote = session.delta(delta)
            step = local.step(delta)
            if canonical(remote["result"]) != canonical(step.result.to_json()):
                raise AssertionError(f"stream divergence at delta {checked}")
            checked += 1
    return checked


def check_error_envelope(client: ServeClient, graph) -> None:
    """Server-side errors must re-raise as their original types."""
    try:
        client.detect(graph, config=repro.RIDConfig(alpha=0.5))
    except ConfigError as exc:
        if "alpha must be >= 1" not in str(exc):
            raise AssertionError(f"wrong error message over the wire: {exc}")
    else:
        raise AssertionError("invalid config did not raise ConfigError")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tiny", action="store_true", help="CI identity gate")
    parser.add_argument("--components", type=int, default=12)
    parser.add_argument("--size", type=int, default=40, help="nodes per component")
    parser.add_argument("--cold-requests", type=int, default=12)
    parser.add_argument("--warm-requests", type=int, default=40)
    parser.add_argument("--threads", type=int, default=4)
    parser.add_argument("--per-thread", type=int, default=20)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--out", default="BENCH_serve.json")
    args = parser.parse_args()

    if args.tiny:
        args.components, args.size = 3, 8
        args.cold_requests, args.warm_requests = 3, 5
        args.threads, args.per_thread = 2, 3

    config = ServeConfig(workers=args.workers, timeout=300.0, queue_size=256)
    with start_in_thread(config) as handle:
        with ServeClient(handle.url, timeout=300.0) as client:
            warm_graph = synthetic_snapshot(args.components, args.size, seed=7)
            print(
                f"serve benchmark: {warm_graph.number_of_nodes()} nodes / "
                f"{args.components} components per graph, {args.workers} workers "
                f"at {handle.url}"
            )

            checked = check_stream_identity(client, deltas_n=3 if args.tiny else 6)
            check_error_envelope(client, warm_graph)
            check_repeat_identity(
                client, synthetic_snapshot(args.components, args.size, seed=11)
            )
            print(
                f"identity: detect + repeat + reordered body + {checked} stream "
                "deltas + error envelope ok"
            )

            cold = bench_cold(client, args.components, args.size, args.cold_requests)
            warm = bench_warm(client, warm_graph, args.warm_requests)
            rps, errors = bench_throughput(
                handle.url, warm_graph, args.threads, args.per_thread
            )
            if errors:
                raise AssertionError(f"throughput run had errors: {errors[:3]}")
            merged = handle.metrics()

    cold_p50, cold_p99 = percentile(cold, 0.5), percentile(cold, 0.99)
    warm_p50, warm_p99 = percentile(warm, 0.5), percentile(warm, 0.99)
    speedup = cold_p50 / warm_p50 if warm_p50 > 0 else float("inf")
    print(f"cold  p50 {cold_p50 * 1000:8.2f} ms   p99 {cold_p99 * 1000:8.2f} ms")
    print(f"warm  p50 {warm_p50 * 1000:8.2f} ms   p99 {warm_p99 * 1000:8.2f} ms")
    print(f"warm-cache speedup (p50): {speedup:.2f}x")
    print(f"throughput: {rps:.1f} req/s ({args.threads} clients, warm path)")

    counters = merged.counters
    report = {
        "tiny": args.tiny,
        "identity": "ok",
        "graph": {
            "components": args.components,
            "nodes": warm_graph.number_of_nodes(),
            "edges": warm_graph.number_of_edges(),
        },
        "server": {"workers": args.workers, "url_schema": "repro.serve/v1"},
        "latency": {
            "cold_p50_s": round(cold_p50, 6),
            "cold_p99_s": round(cold_p99, 6),
            "warm_p50_s": round(warm_p50, 6),
            "warm_p99_s": round(warm_p99, 6),
            "cold_requests": len(cold),
            "warm_requests": len(warm),
        },
        "warm_speedup_p50": round(speedup, 2),
        "throughput": {
            "requests_per_sec": round(rps, 1),
            "threads": args.threads,
            "per_thread": args.per_thread,
        },
        "serve_counters": {
            name: counters[name]
            for name in sorted(counters)
            if name.startswith("serve.")
        },
        "note": "end-to-end loopback HTTP latency, client send to decoded "
        "response; cold = never-seen graph per request, warm = same graph "
        "(shard affinity + hot ArtifactCache); identity checked against "
        "direct repro.detect before timing",
    }

    if args.tiny:
        print("tiny gate: identity ok (no timing assertions)")
        return 0
    gate = Gate()
    if speedup < 3.0:
        gate.failures.append(f"warm-cache p50 speedup {speedup:.2f}x < 3x")
    return gate.finish(report, args.out)


if __name__ == "__main__":
    raise SystemExit(main())
