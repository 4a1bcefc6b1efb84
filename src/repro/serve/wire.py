"""The versioned wire layer of the serving tier: ``repro.serve/v1``.

Everything that crosses the HTTP boundary is plain JSON tagged with
:data:`WIRE_SCHEMA`. The payload codecs are *not* reimplemented here —
graphs travel as :func:`repro.codec.encode_graph` payloads, results as
``DetectionResult.to_json`` / ``DiffusionResult.to_json`` and deltas as
``SnapshotDelta.to_json``, all built on :mod:`repro.codec` — so a
served response is byte-for-byte the same JSON a caller gets from
encoding a direct :func:`repro.detect` call (the identity gate).

This module owns the three things the codecs don't:

* request parsing / schema-tag enforcement (:func:`parse_body`,
  :func:`graph_from_json`, :func:`detector_config_from_json`): invalid
  or over-deep JSON and payloads the codec rejects are a 400;
* the error envelope — every failure maps to one HTTP status and a
  ``{"schema": ..., "error": {"type", "message", "status"}}`` body
  (:func:`error_envelope`, :data:`ERROR_STATUS`);
* the client-side inverse, :func:`raise_from_envelope`, which rebuilds
  the original :mod:`repro.errors` exception from an envelope so remote
  callers catch the same types local callers do.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Optional, Tuple

from repro import errors as _errors
from repro.codec import CacheCodecError, decode_graph
from repro.errors import (
    ConfigError,
    DeltaApplicationError,
    EmptyInfectionError,
    ReproError,
    RequestTimeoutError,
    ResultFormatError,
    ServeClientError,
    ServerOverloadedError,
    SessionExistsError,
    SessionNotFoundError,
    WireFormatError,
)
from repro.graphs.signed_digraph import SignedDiGraph

#: The wire schema every request and response body is tagged with.
WIRE_SCHEMA = "repro.serve/v1"

#: Exception → HTTP status, most specific first (first match wins).
ERROR_STATUS: Tuple[Tuple[type, int], ...] = (
    (ServerOverloadedError, 503),
    (RequestTimeoutError, 504),
    (SessionNotFoundError, 404),
    (SessionExistsError, 409),
    (DeltaApplicationError, 409),
    (EmptyInfectionError, 422),
    (WireFormatError, 400),
    (ResultFormatError, 400),
    (ConfigError, 400),
    (ValueError, 400),
    (ReproError, 500),
)

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


def reason(status: int) -> str:
    """HTTP reason phrase for the statuses this wire schema emits."""
    return _REASONS.get(status, "Error")


def envelope(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Tag a response payload with the wire schema."""
    out = {"schema": WIRE_SCHEMA}
    out.update(payload)
    return out


def body_digest(raw: bytes) -> str:
    """Digest of a request's raw body bytes: the shard-affinity and
    coalescing key of stateless requests, and the first key of a
    worker's decoded-graph cache. Hashing the bytes as received costs no
    serialisation, so only byte-identical bodies share a key."""
    return hashlib.blake2b(raw, digest_size=16).hexdigest()


def payload_digest(payload: Any) -> str:
    """Content digest of a JSON payload: the canonical key of a worker's
    decoded-graph cache. Canonical (sorted-key) serialisation, so two
    payloads that mean the same thing hash the same regardless of dict
    insertion order or whitespace."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(blob.encode("utf-8"), digest_size=16).hexdigest()


def parse_body(raw: bytes) -> Dict[str, Any]:
    """Decode and schema-check a request body.

    Raises:
        WireFormatError: on non-JSON (over-deep nesting included),
            non-object, or wrong/missing ``schema`` tag — the version
            handshake every request pays.
    """
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise WireFormatError(f"request body is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise WireFormatError(
            f"request body must be a JSON object, got {type(payload).__name__}"
        )
    schema = payload.get("schema")
    if schema != WIRE_SCHEMA:
        raise WireFormatError(
            f"unsupported wire schema {schema!r}; this server speaks {WIRE_SCHEMA!r}"
        )
    return payload


def require(payload: Dict[str, Any], field: str, kind: type) -> Any:
    """Pull a mandatory field of a given JSON type out of a request."""
    value = payload.get(field)
    if not isinstance(value, kind):
        raise WireFormatError(
            f"request field {field!r} must be a {kind.__name__}, "
            f"got {type(value).__name__}"
        )
    return value


def optional_int(payload: Dict[str, Any], field: str) -> Optional[int]:
    """An optional integer field (``bool`` is not an int on the wire)."""
    value = payload.get(field)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise WireFormatError(
            f"request field {field!r} must be an integer or null, "
            f"got {type(value).__name__}"
        )
    return value


def graph_from_json(payload: Any) -> SignedDiGraph:
    """Decode a wire graph payload, failing with a 400-mapped error."""
    try:
        return decode_graph(payload)
    except CacheCodecError as exc:
        raise WireFormatError(f"malformed graph payload: {exc}") from exc


def detector_request(payload: Dict[str, Any]) -> str:
    """Resolve a request's ``detector`` / ``tier`` fields to a registry name.

    The ``repro.serve/v1`` schema addresses detectors two ways:

    * ``detector``: an explicit registry name (``'rid'``,
      ``'jordan_center'``, ...);
    * ``tier``: the documented two-tier routing policy —
      ``'fast'`` maps to a sub-second heuristic, ``'accurate'`` to the
      full RID pipeline (:data:`repro.detectors.TIER_ROUTING`).

    Omitting both keeps the historical default, ``'rid'``. Supplying
    both is ambiguous and raises :class:`ConfigError`.
    """
    from repro.detectors.registry import TIER_ROUTING, canonical_detector_name

    detector = payload.get("detector")
    tier = payload.get("tier")
    if detector is not None and tier is not None:
        raise ConfigError(
            "request fields 'detector' and 'tier' are mutually exclusive: "
            "name a detector or let the tier policy route it, not both"
        )
    if tier is not None:
        if not isinstance(tier, str) or tier not in TIER_ROUTING:
            raise ConfigError(
                f"unknown tier {tier!r}; expected one of {sorted(TIER_ROUTING)}"
            )
        return TIER_ROUTING[tier]
    if detector is None:
        return "rid"
    if not isinstance(detector, str):
        raise WireFormatError(
            f"request field 'detector' must be a string, "
            f"got {type(detector).__name__}"
        )
    return canonical_detector_name(detector)


def detector_config_from_json(name: str, payload: Any) -> Any:
    """Build the validated config instance for a named detector.

    ``None`` means the entry's defaults; a dict is field- and
    type-checked against the entry's config dataclass (unknown keys and
    wrong-typed values raise :class:`ConfigError`), delegating to the
    detector registry. The encoding direction is
    :func:`repro.detectors.detector_config_to_json`.
    """
    from repro.detectors.registry import coerce_detector_config

    if payload is not None and not isinstance(payload, dict):
        raise WireFormatError(
            f"config payload must be a JSON object or null, "
            f"got {type(payload).__name__}"
        )
    return coerce_detector_config(name, payload)


def status_for(exc: BaseException) -> int:
    """The HTTP status an exception maps to (500 for anything unknown)."""
    for etype, status in ERROR_STATUS:
        if isinstance(exc, etype):
            return status
    return 500


def error_envelope(
    exc: BaseException,
) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
    """Map an exception to ``(status, body, extra_headers)``.

    503s carry a ``Retry-After`` header so well-behaved clients back off
    instead of hammering a shedding server.
    """
    status = status_for(exc)
    # KeyError subclasses repr-quote their message; unwrap the raw text.
    message = exc.args[0] if exc.args else str(exc)
    error: Dict[str, Any] = {
        "type": type(exc).__name__,
        "message": str(message),
        "status": status,
    }
    session = getattr(exc, "session", None)
    if isinstance(session, str):
        error["session"] = session
    body = envelope({"error": error})
    headers: Dict[str, str] = {}
    if isinstance(exc, ServerOverloadedError):
        headers["Retry-After"] = f"{exc.retry_after:g}"
    return status, body, headers


def route_error(status: int, message: str) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
    """An envelope for routing- and framing-level failures (400/404/405/
    408/413/431/501) that never reach the worker pool."""
    body = envelope(
        {"error": {"type": "RouteError", "message": message, "status": status}}
    )
    return status, body, {}


def raise_from_envelope(
    status: int, payload: Any, retry_after: Optional[str] = None
) -> None:
    """Client side: rebuild the server's exception from an envelope.

    Known :mod:`repro.errors` types are re-raised as themselves (so
    ``except ConfigError`` works identically against a server and a
    local call); anything unrecognised becomes :class:`ServeClientError`
    carrying the status and the raw envelope.
    """
    error = payload.get("error") if isinstance(payload, dict) else None
    if not isinstance(error, dict):
        raise ServeClientError(
            f"HTTP {status} with no error envelope", status, envelope=payload
        )
    name = error.get("type", "")
    message = error.get("message", f"HTTP {status}")
    if name == "ServerOverloadedError":
        try:
            delay = float(retry_after) if retry_after else 1.0
        except ValueError:
            delay = 1.0
        raise ServerOverloadedError(message, retry_after=delay)
    session = error.get("session")
    if isinstance(session, str) and name in (
        "SessionNotFoundError",
        "SessionExistsError",
    ):
        raise getattr(_errors, name)(session)
    cls = getattr(_errors, name, None)
    if isinstance(cls, type) and issubclass(cls, ReproError):
        try:
            raise cls(message)
        except TypeError:  # constructor with a different arity
            pass
    raise ServeClientError(message, status, envelope=payload)
