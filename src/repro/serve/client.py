"""A thin stdlib client for the ``repro.serve/v1`` wire API.

:class:`ServeClient` speaks the same codecs the library does, so remote
calls return the same types as local ones — ``detect`` gives a
:class:`~repro.detectors.base.DetectionResult`, ``simulate`` a
:class:`~repro.diffusion.base.DiffusionResult` — and server-side errors
re-raise as their original :mod:`repro.errors` types
(:func:`repro.serve.wire.raise_from_envelope`).

One client wraps one ``http.client.HTTPConnection`` and is **not**
thread-safe; give each thread its own client (they are cheap).
"""

from __future__ import annotations

import http.client
import json
from typing import Any, Dict, List, Optional, Tuple, Union
from urllib.parse import urlsplit

from repro.codec import encode_graph, encode_states
from repro.detectors.base import DetectionResult
from repro.diffusion.base import DiffusionResult
from repro.errors import ConfigError, ServeClientError
from repro.graphs.signed_digraph import SignedDiGraph
from repro.serve import wire
from repro.types import Node, NodeState


def _encode_config(config: Any) -> Optional[Dict[str, Any]]:
    """Encode a detector config for the wire: a config dataclass (any
    registry entry's), a plain dict of fields, or None."""
    import dataclasses

    if config is None or isinstance(config, dict):
        return config
    if dataclasses.is_dataclass(config):
        return dataclasses.asdict(config)
    raise ConfigError(
        f"config must be a config dataclass, a dict of its fields, or "
        f"None, got {type(config).__name__}"
    )


class StreamSession:
    """A named server-side streaming session (delta → re-detect)."""

    def __init__(self, client: "ServeClient", name: str, info: Dict[str, Any]) -> None:
        self.client = client
        self.name = name
        self.info = info

    def delta(self, delta, *, budget: Optional[int] = None) -> Dict[str, Any]:
        """Apply one :class:`~repro.stream.delta.SnapshotDelta` (or its
        JSON form); returns the raw step payload with ``payload["result"]``
        additionally decoded into ``payload["detection"]``."""
        raw = delta if isinstance(delta, dict) else delta.to_json()
        body: Dict[str, Any] = {"delta": raw}
        if budget is not None:
            body["budget"] = budget
        payload = self.client._request(
            "POST", f"/v1/sessions/{self.name}/delta", body
        )
        payload["detection"] = DetectionResult.from_json(payload["result"])
        return payload

    def close(self) -> Dict[str, Any]:
        return self.client._request("DELETE", f"/v1/sessions/{self.name}")

    def __enter__(self) -> "StreamSession":
        return self

    def __exit__(self, *exc: object) -> None:
        try:
            self.close()
        except ServeClientError:
            pass


class ServeClient:
    """Talk to a :class:`~repro.serve.server.DetectionServer`."""

    def __init__(self, url: str = "http://127.0.0.1:8473", timeout: float = 60.0) -> None:
        parts = urlsplit(url if "//" in url else f"http://{url}")
        self.host = parts.hostname or "127.0.0.1"
        self.port = parts.port or 8473
        self.timeout = timeout
        self._conn: Optional[http.client.HTTPConnection] = None

    # -- transport -------------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._conn

    def _request(
        self, method: str, path: str, payload: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        body = None
        headers = {}
        if payload is not None:
            body = json.dumps(wire.envelope(payload)).encode("utf-8")
            headers["Content-Type"] = "application/json"
        conn = self._connection()
        try:
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            blob = response.read()
        except (ConnectionError, http.client.HTTPException, OSError):
            # One clean reconnect: the server may have closed a
            # keep-alive connection between requests.
            self.close()
            conn = self._connection()
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            blob = response.read()
        try:
            decoded = json.loads(blob.decode("utf-8")) if blob else {}
        except (json.JSONDecodeError, UnicodeDecodeError):
            raise ServeClientError(
                f"non-JSON response (HTTP {response.status})", response.status
            ) from None
        if response.status >= 400:
            wire.raise_from_envelope(
                response.status, decoded, response.getheader("Retry-After")
            )
        return decoded

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- endpoints -------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        return self._request("GET", "/v1/health")

    def stats(self) -> Dict[str, Any]:
        return self._request("GET", "/v1/stats")

    def detect(
        self,
        graph: SignedDiGraph,
        *,
        budget: Optional[int] = None,
        config: Any = None,
        detector: Optional[str] = None,
        tier: Optional[str] = None,
        raw: bool = False,
    ) -> Union[DetectionResult, Dict[str, Any]]:
        """Remote :func:`repro.detect` on an infected snapshot.

        ``detector=`` names a registry entry (``'rid'``,
        ``'jordan_center'``, ...; the server default is RID); ``tier=``
        lets the server's two-tier policy pick one (``'fast'`` /
        ``'accurate'``) — the two are mutually exclusive. ``config=``
        carries the named entry's hyper-parameters (its config dataclass
        or a dict of fields).

        ``raw=True`` returns the full wire payload (the identity-gate
        form: ``payload["result"]`` is byte-comparable against a local
        ``result.to_json()``); otherwise the decoded
        :class:`DetectionResult`.
        """
        body: Dict[str, Any] = {"graph": encode_graph(graph)}
        if budget is not None:
            body["budget"] = budget
        if config is not None:
            body["config"] = _encode_config(config)
        if detector is not None:
            body["detector"] = detector
        if tier is not None:
            body["tier"] = tier
        payload = self._request("POST", "/v1/detect", body)
        if raw:
            return payload
        return DetectionResult.from_json(payload["result"])

    def simulate(
        self,
        graph: SignedDiGraph,
        seeds: Dict[Node, NodeState],
        *,
        model: Optional[str] = None,
        params: Optional[Dict[str, Any]] = None,
        trials: Optional[int] = None,
        rng: int = 0,
        raw: bool = False,
    ) -> Union[DiffusionResult, List[DiffusionResult], Dict[str, Any]]:
        """Remote :func:`repro.simulate` (registry-name models only)."""
        body: Dict[str, Any] = {
            "graph": encode_graph(graph),
            "seeds": encode_states(seeds),
            "rng": rng,
        }
        if model is not None:
            body["model"] = model
        if params:
            body["params"] = params
        if trials is not None:
            body["trials"] = trials
        payload = self._request("POST", "/v1/simulate", body)
        if raw:
            return payload
        if trials is None:
            return DiffusionResult.from_json(payload["result"])
        return [DiffusionResult.from_json(p) for p in payload["results"]]

    def evaluate(
        self,
        workload: Union[Dict[str, Any], Any],
        *,
        trials: int = 3,
        config: Any = None,
        detector: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Remote :func:`repro.evaluate` of a named detector (default RID)
        on a workload config.

        ``workload`` is a :class:`~repro.experiments.config.WorkloadConfig`
        or its dict form; returns the aggregated-score payload."""
        import dataclasses as _dc

        spec = _dc.asdict(workload) if _dc.is_dataclass(workload) else dict(workload)
        body: Dict[str, Any] = {"workload": spec, "trials": trials}
        if config is not None:
            body["config"] = _encode_config(config)
        if detector is not None:
            body["detector"] = detector
        return self._request("POST", "/v1/evaluate", body)

    def open_session(
        self,
        name: str,
        graph: SignedDiGraph,
        *,
        config: Any = None,
        detector: Optional[str] = None,
    ) -> StreamSession:
        """Open a named streaming session seeded with ``graph``.

        ``detector=`` names the registry entry that re-detects after
        each delta (server default: the incremental RID path)."""
        body: Dict[str, Any] = {"session": name, "graph": encode_graph(graph)}
        if config is not None:
            body["config"] = _encode_config(config)
        if detector is not None:
            body["detector"] = detector
        info = self._request("POST", "/v1/sessions", body)
        return StreamSession(self, name, info)

    def session_info(self, name: str) -> Dict[str, Any]:
        return self._request("GET", f"/v1/sessions/{name}")
