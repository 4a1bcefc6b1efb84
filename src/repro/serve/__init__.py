"""Detection-as-a-service: serve :func:`repro.detect` over HTTP.

A stdlib-only asyncio server (:class:`DetectionServer`) with a
warm-cache worker pool — requests shard onto workers by the digest of
their body bytes, so each worker compiles a graph once and keeps its
warm detectors and their artifact caches hot across requests — plus a
versioned JSON wire schema
(:data:`WIRE_SCHEMA` = ``repro.serve/v1``) and a thin client
(:class:`ServeClient`). Served responses are bit-identical to calling
the library directly on the same snapshot.

Quickstart::

    from repro.serve import ServeClient, ServeConfig, start_in_thread

    with start_in_thread(ServeConfig(workers=2)) as handle:
        client = ServeClient(handle.url)
        result = client.detect(infected_graph)

See docs/serving.md for the endpoint reference and deployment knobs.
"""

from repro.serve.client import ServeClient, StreamSession
from repro.serve.pool import WorkerPool
from repro.serve.server import (
    DetectionServer,
    ServeConfig,
    ServerHandle,
    start_in_thread,
)
from repro.serve.wire import WIRE_SCHEMA

__all__ = [
    "DetectionServer",
    "ServeClient",
    "ServeConfig",
    "ServerHandle",
    "StreamSession",
    "WIRE_SCHEMA",
    "WorkerPool",
    "start_in_thread",
]
