"""Unit tests for the ``repro.serve/v1`` wire layer (no sockets)."""

import json

import pytest

from repro.core.rid import RIDConfig
from repro.detectors import detector_config_to_json
from repro.errors import (
    ConfigError,
    DeltaApplicationError,
    EmptyInfectionError,
    RequestTimeoutError,
    ServeClientError,
    ServerOverloadedError,
    SessionExistsError,
    SessionNotFoundError,
    WireFormatError,
)
from repro.graphs.signed_digraph import SignedDiGraph
from repro.serve import wire
from repro.types import NodeState


class TestParseBody:
    def test_valid_body_round_trips(self):
        raw = json.dumps({"schema": wire.WIRE_SCHEMA, "x": 1}).encode()
        assert wire.parse_body(raw)["x"] == 1

    @pytest.mark.parametrize(
        "raw",
        [
            b"not json",
            b"[1, 2]",
            b'{"x": 1}',  # missing schema tag
            b'{"schema": "repro.serve/v0"}',
            b'{"schema": null}',
        ],
    )
    def test_bad_bodies_raise_wire_format_error(self, raw):
        with pytest.raises(WireFormatError):
            wire.parse_body(raw)

    def test_over_deep_body_is_a_wire_format_error(self):
        # Nesting past the recursion limit, well under any body cap.
        raw = b'{"schema": "repro.serve/v1", "graph": ' + b"[" * 50_000 + b"]" * 50_000 + b"}"
        with pytest.raises(WireFormatError, match="not valid JSON"):
            wire.parse_body(raw)

    def test_wrong_schema_message_names_both_versions(self):
        raw = json.dumps({"schema": "repro.serve/v999"}).encode()
        with pytest.raises(WireFormatError, match="v999.*repro.serve/v1"):
            wire.parse_body(raw)


class TestFieldHelpers:
    def test_require_present(self):
        assert wire.require({"a": {"b": 1}}, "a", dict) == {"b": 1}

    def test_require_missing_or_wrong_type(self):
        with pytest.raises(WireFormatError, match="'graph' must be a dict"):
            wire.require({}, "graph", dict)
        with pytest.raises(WireFormatError):
            wire.require({"graph": 3}, "graph", dict)

    def test_optional_int_accepts_none_and_int(self):
        assert wire.optional_int({}, "budget") is None
        assert wire.optional_int({"budget": None}, "budget") is None
        assert wire.optional_int({"budget": 4}, "budget") == 4

    @pytest.mark.parametrize("value", [True, 1.5, "3", [1]])
    def test_optional_int_rejects_non_ints(self, value):
        with pytest.raises(WireFormatError, match="'budget' must be an integer"):
            wire.optional_int({"budget": value}, "budget")


class TestGraphCodec:
    def test_graph_round_trips_via_wire(self):
        from repro.codec import encode_graph

        g = SignedDiGraph()
        g.add_edge("a", "b", 1, 0.5)
        g.set_states({"a": NodeState.POSITIVE, "b": NodeState.NEGATIVE})
        decoded = wire.graph_from_json(encode_graph(g))
        assert set(decoded.nodes()) == {"a", "b"}
        assert decoded.state("b") is NodeState.NEGATIVE

    @pytest.mark.parametrize(
        "payload",
        [None, 7, [], {"nodes": "x"}, {}]
        # Node ids are decoded strictly, never coerced to another node.
        + [
            {"nodes": [[pair, 1]], "edges": []}
            for pair in (["q", 0], ["s", 5], ["i", 1.9], ["i", True], ["i", "7"])
        ]
        # Signs, weights and states are decoded strictly too.
        + [
            {"nodes": [[["i", 1], 1], [["i", 2], 1]], "edges": [[["i", 1], ["i", 2], sign, weight]]}
            for sign, weight in ((1.9, 0.5), (True, 0.5), (1.0, 0.5), (2, 0.5), (1, "0.5"), (1, False), (1, 1.5))
        ]
        + [{"nodes": [[["i", 1], state]], "edges": []} for state in (True, 1.0, "1", 3)],
    )
    def test_malformed_graph_payloads(self, payload):
        with pytest.raises(WireFormatError):
            wire.graph_from_json(payload)


    @pytest.mark.parametrize(
        "payload",
        [
            # a node listed twice (the second entry must not be dropped)
            {"nodes": [[["i", 1], 1], [["i", 1], -1]], "edges": []},
            # an edge endpoint missing from "nodes" (must not appear as inactive)
            {"nodes": [[["i", 1], 1]], "edges": [[["i", 1], ["i", 2], 1, 0.5]]},
            # an edge listed twice (the second must not overwrite the first)
            {
                "nodes": [[["i", 1], 1], [["i", 2], 1]],
                "edges": [[["i", 1], ["i", 2], 1, 0.5], [["i", 1], ["i", 2], -1, 0.5]],
            },
        ],
        ids=["duplicate-node", "missing-endpoint", "duplicate-edge"],
    )
    def test_malformed_graph_structure(self, payload):
        with pytest.raises(WireFormatError):
            wire.graph_from_json(payload)


class TestConfigCodec:
    """RID configs travel through the registry codecs like any detector's."""

    def test_none_means_paper_defaults(self):
        assert wire.detector_config_from_json("rid", None) == RIDConfig()

    def test_round_trip(self):
        config = RIDConfig(alpha=4.0, beta=0.09, score="raw")
        payload = detector_config_to_json(config)
        assert wire.detector_config_from_json("rid", payload) == config

    def test_unknown_keys_rejected_loudly(self):
        with pytest.raises(ConfigError, match=r"\['betaa'\].*valid fields"):
            wire.detector_config_from_json("rid", {"betaa": 0.1})

    def test_backend_is_not_a_config_field(self):
        # The DP has one implementation; a served config naming a kernel
        # backend is an unknown field like any other (HTTP 400).
        with pytest.raises(ConfigError, match=r"\['backend'\]") as excinfo:
            wire.detector_config_from_json("rid", {"backend": "numpy"})
        assert wire.status_for(excinfo.value) == 400

    def test_values_are_validated(self):
        with pytest.raises(ConfigError, match="alpha must be >= 1"):
            wire.detector_config_from_json("rid", {"alpha": 0.5})

    def test_non_dict_payload(self):
        with pytest.raises(WireFormatError):
            wire.detector_config_from_json("rid", "beta=0.1")


class TestPayloadDigest:
    def test_key_order_does_not_matter(self):
        assert wire.payload_digest({"a": 1, "b": 2}) == wire.payload_digest(
            {"b": 2, "a": 1}
        )

    def test_different_content_differs(self):
        assert wire.payload_digest({"a": 1}) != wire.payload_digest({"a": 2})


class TestErrorEnvelope:
    @pytest.mark.parametrize(
        "exc, status",
        [
            (ConfigError("bad"), 400),
            (WireFormatError("bad"), 400),
            (EmptyInfectionError("empty"), 422),
            (DeltaApplicationError("out of order"), 409),
            (SessionExistsError("s"), 409),
            (SessionNotFoundError("s"), 404),
            (ServerOverloadedError(), 503),
            (RequestTimeoutError("slow"), 504),
            (RuntimeError("boom"), 500),
        ],
    )
    def test_status_mapping(self, exc, status):
        got, body, _ = wire.error_envelope(exc)
        assert got == status
        assert body["schema"] == wire.WIRE_SCHEMA
        assert body["error"]["status"] == status
        assert body["error"]["type"] == type(exc).__name__

    def test_overload_carries_retry_after_header(self):
        _, _, headers = wire.error_envelope(
            ServerOverloadedError("busy", retry_after=2.5)
        )
        assert headers["Retry-After"] == "2.5"

    def test_key_error_message_is_not_repr_quoted(self):
        _, body, _ = wire.error_envelope(SessionNotFoundError("sess"))
        assert body["error"]["message"] == "unknown stream session 'sess'"
        assert body["error"]["session"] == "sess"

    def test_envelope_is_json_serialisable(self):
        _, body, _ = wire.error_envelope(ConfigError("x"))
        json.dumps(body)


class TestRaiseFromEnvelope:
    def round_trip(self, exc, retry_after=None):
        status, body, headers = wire.error_envelope(exc)
        with pytest.raises(type(exc)) as info:
            wire.raise_from_envelope(
                status, body, retry_after or headers.get("Retry-After")
            )
        return info.value

    def test_config_error_round_trips(self):
        err = self.round_trip(ConfigError("alpha must be >= 1, got 0.5"))
        assert "alpha must be >= 1" in str(err)

    def test_session_errors_round_trip_with_clean_message(self):
        err = self.round_trip(SessionNotFoundError("sess"))
        assert err.session == "sess"
        err = self.round_trip(SessionExistsError("sess"))
        assert err.session == "sess"

    def test_overload_round_trips_retry_after(self):
        err = self.round_trip(ServerOverloadedError("busy", retry_after=3.0))
        assert err.retry_after == 3.0

    def test_unknown_type_becomes_client_error(self):
        body = wire.envelope(
            {"error": {"type": "SomethingElse", "message": "weird", "status": 500}}
        )
        with pytest.raises(ServeClientError) as info:
            wire.raise_from_envelope(500, body)
        assert info.value.status == 500
        assert info.value.envelope == body

    def test_missing_envelope_becomes_client_error(self):
        with pytest.raises(ServeClientError, match="no error envelope"):
            wire.raise_from_envelope(502, {"schema": wire.WIRE_SCHEMA})


class TestReason:
    def test_known_and_unknown_statuses(self):
        assert wire.reason(200) == "OK"
        assert wire.reason(431) == "Request Header Fields Too Large"
        assert wire.reason(501) == "Not Implemented"
        assert wire.reason(503) == "Service Unavailable"
        assert wire.reason(599) == "Error"
