"""Fuzzing the JSON decoders, and round trips through them.

Every decoder that reads outside input gets arbitrary JSON values —
nested lists and dicts of ints, floats, strings, bools and null — and,
more often, valid payloads with one fault planted anywhere inside: one
value replaced, one list entry repeated or one entry dropped. Each
input must either decode or raise that entry point's documented error
type, and nothing else.

Decoding must also be exact: whatever decodes re-encodes to the JSON it
came from (up to the encoders' canonical order), so no value is coerced
(a sign ``1.9`` read as ``+1``, a state ``true`` read as ``1``) and no
structure is silently repaired (a node or edge listed twice, an edge
endpoint missing from the nodes).
"""

import json
import math
import random
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec import (
    CacheCodecError,
    decode_edge,
    decode_graph,
    decode_node,
    decode_states,
    encode_graph,
    encode_node,
    encode_states,
)
from repro.detectors.base import DetectionResult
from repro.diffusion.base import ActivationEvent, DiffusionResult
from repro.errors import EventLogFormatError, ResultFormatError, WireFormatError
from repro.graphs.signed_digraph import SignedDiGraph
from repro.serve import wire
from repro.stream import SnapshotDelta, read_event_log
from repro.types import INITIATOR_STATES, NodeState

FUZZ = settings(max_examples=400, deadline=None)
ROUND_TRIP = settings(max_examples=80, deadline=None)

# -- generated values (also the round trips' inputs) ---------------------------

NODES = st.integers(-1000, 1000) | st.text(max_size=4)
STATES = st.sampled_from(list(NodeState))


@st.composite
def graphs(draw):
    graph = SignedDiGraph(name=draw(st.text(max_size=4)))
    nodes = draw(st.lists(NODES, unique=True, max_size=6))
    for node in nodes:
        graph.add_node(node, draw(STATES))
    for _ in range(draw(st.integers(1, 8)) if nodes else 0):
        u, v = draw(st.sampled_from(nodes)), draw(st.sampled_from(nodes))
        graph.add_edge(u, v, draw(st.sampled_from([-1, 1])), draw(st.floats(0, 1)))
    return graph


DELTAS = st.builds(
    SnapshotDelta,
    states=st.dictionaries(NODES, STATES, max_size=4),
    add_edges=st.lists(st.tuples(NODES, NODES, st.sampled_from([-1, 1]), st.floats(0, 1)), max_size=4),
    remove_edges=st.lists(st.tuples(NODES, NODES), max_size=3),
    remove_nodes=st.lists(NODES, max_size=3),
)
DETECTIONS = st.builds(
    DetectionResult,
    method=st.text(max_size=5),
    initiators=st.sets(NODES, max_size=4),
    states=st.dictionaries(NODES, st.sampled_from(INITIATOR_STATES), max_size=4),
    trees=st.lists(graphs(), max_size=2),
    objective=st.none() | st.floats(allow_nan=False),
)
DIFFUSIONS = st.builds(
    DiffusionResult,
    seeds=st.dictionaries(NODES, st.sampled_from(INITIATOR_STATES), max_size=4),
    final_states=st.dictionaries(NODES, STATES, max_size=5),
    events=st.lists(
        st.builds(
            ActivationEvent,
            round=st.integers(0, 20),
            source=st.none() | NODES,
            target=NODES,
            state=STATES,
            was_flip=st.booleans(),
        ),
        max_size=5,
    ),
    rounds=st.integers(0, 20),
)

# -- arbitrary JSON, and valid payloads with one fault planted -----------------

SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
JSON = st.recursive(
    SCALARS,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=6), kids, max_size=4),
    max_leaves=12,
)


def near_misses(value):
    """Values one JSON type (or one step of range) away from ``value``."""
    if type(value) is bool:
        return [int(value), str(value).lower(), None]
    if type(value) is int:
        return [float(value), str(value), value == 1, value + 2, 10**400]
    if type(value) is float:
        whole = [round(value)] if math.isfinite(value) else []
        return [str(value), value > 0.5, value + 1.0, float("nan")] + whole
    if type(value) is str:
        return [value + "?", len(value), None]
    if type(value) is list:
        return [value[:-1], value + value[-1:], {}]
    return [[], None, 0]


def _slots(value, path=()):
    """Every ``(container, key, field)`` location inside a JSON value;
    ``field`` is the path with list indices blanked, e.g.
    ``("edges", "*", 2)`` for every edge's sign."""
    if isinstance(value, dict):
        items = [(key, child, key) for key, child in value.items()]
    elif isinstance(value, list):
        items = [(index, child, "*") for index, child in enumerate(value)]
    else:
        return
    for key, child, step in items:
        field = path + (step,)
        yield value, key, field
        yield from _slots(child, field)


@st.composite
def faulty(draw, payloads):
    """A valid payload (as JSON) with at most one value replaced, entry
    repeated or entry dropped — or any JSON value at all.

    The fault is planted by a ``Random`` seeded from the payload itself,
    so faults spread evenly over the payloads hypothesis draws instead of
    following its preference for simple choices. The faulty field is
    drawn first and the entry second, so every field (a graph's name,
    each edge's sign, each event's flip flag) is hit equally often.
    """
    if draw(st.integers(0, 9)) == 0:
        return draw(JSON)
    text = json.dumps(draw(payloads))
    payload = json.loads(text)
    rnd = random.Random(text + str(draw(st.integers(0, 2**32))))
    slots = list(_slots(payload))
    if not slots or rnd.random() < 0.1:
        return payload
    field = rnd.choice(sorted({f for _, _, f in slots}, key=repr))
    container, key, _ = rnd.choice([s for s in slots if s[2] == field])
    fault = rnd.choice(["replace", "replace", "replace", "repeat", "repeat", "drop"])
    if fault == "replace":
        misses = near_misses(container[key])
        container[key] = rnd.choice(misses) if rnd.random() < 0.8 else draw(JSON)
    elif fault == "repeat" and isinstance(container, list):
        container.insert(key, json.loads(json.dumps(container[key])))
    else:
        del container[key]
    return payload


GRAPH = faulty(graphs().map(encode_graph))
STATE_MAP = faulty(st.dictionaries(NODES, STATES, max_size=4).map(encode_states))
EDGE = faulty(st.tuples(NODES, NODES, st.sampled_from([-1, 1]), st.floats(0, 1)).map(
    lambda e: [encode_node(e[0]), encode_node(e[1]), e[2], e[3]]
))
DELTA = faulty(DELTAS.map(SnapshotDelta.to_json))
DETECTION = faulty(DETECTIONS.map(DetectionResult.to_json))
DIFFUSION = faulty(DIFFUSIONS.map(DiffusionResult.to_json))
#: JSON texts too deep for the interpreter's recursion limit, and ints
#: past its digit limit: both fail inside ``json.loads`` itself.
HOSTILE_TEXT = st.one_of(
    st.integers(1, 60_000).map(lambda depth: "[" * depth + "]" * depth),
    st.integers(1, 60_000).map(lambda depth: '{"a":' * depth + "1" + "}" * depth),
    st.integers(4000, 6000).map(lambda digits: "1" * digits),
)
BODIES = st.one_of(
    JSON.map(json.dumps),
    GRAPH.map(lambda graph: json.dumps({"schema": wire.WIRE_SCHEMA, "graph": graph})),
    HOSTILE_TEXT,
).map(str.encode) | st.binary(max_size=32)
LOG_LINES = st.one_of(
    GRAPH.map(lambda graph: json.dumps({"type": "snapshot", "format": "repro.stream/v1", "graph": graph})),
    DELTA.filter(lambda delta: isinstance(delta, dict)).map(
        lambda delta: json.dumps(dict(delta, type="delta"))
    ),
    JSON.map(json.dumps),
    HOSTILE_TEXT,
)


def decodes_or_raises(decode, payload, error):
    """``decode(payload)``, or None when it raises ``error`` (any other
    exception fails the test)."""
    try:
        return decode(payload)
    except error:
        return None


def dumps(value) -> str:
    return json.dumps(value, sort_keys=True)


def exact_weight(weight):
    """The float an accepted weight re-encodes as (JSON ints only widen)."""
    return float(weight) if type(weight) is int else weight


def canonical_graph(payload) -> dict:
    """What ``encode_graph`` writes for a payload ``decode_graph`` accepted."""
    by_node = lambda entry: repr(decode_node(entry[0]))  # noqa: E731
    by_edge = lambda edge: (repr(decode_node(edge[0])), repr(decode_node(edge[1])))  # noqa: E731
    return {
        "name": payload.get("name", ""),
        "nodes": sorted(payload["nodes"], key=by_node),
        "edges": sorted(([u, v, s, exact_weight(w)] for u, v, s, w in payload["edges"]), key=by_edge),
    }


# -- every input decodes exactly or raises the documented error ----------------


class TestDecodersRaiseOnlyTheirError:
    @given(GRAPH)
    @FUZZ
    def test_decode_graph(self, payload):
        graph = decodes_or_raises(decode_graph, payload, CacheCodecError)
        if graph is not None:
            assert type(graph.name) is str
            assert dumps(encode_graph(graph)) == dumps(canonical_graph(payload))

    @given(STATE_MAP)
    @FUZZ
    def test_decode_states(self, payload):
        states = decodes_or_raises(decode_states, payload, CacheCodecError)
        if states is not None:
            assert all(type(s) is NodeState for s in states.values())
            assert dumps(encode_states(states)) == dumps(payload)

    @given(EDGE)
    @FUZZ
    def test_decode_edge(self, payload):
        edge = decodes_or_raises(decode_edge, payload, CacheCodecError)
        if edge is not None:
            u, v, sign, weight = edge
            assert type(sign) is int and type(weight) is float
            assert dumps([payload[0], payload[1], sign, weight]) == dumps(
                payload[:3] + [exact_weight(payload[3])]
            )

    @given(DELTA)
    @FUZZ
    def test_snapshot_delta(self, payload):
        delta = decodes_or_raises(SnapshotDelta.from_json, payload, CacheCodecError)
        if delta is not None:
            expected = {
                "type": "delta",
                "states": payload.get("states", []),
                "add_edges": [
                    [u, v, s, exact_weight(w)] for u, v, s, w in payload.get("add_edges", [])
                ],
                "remove_edges": payload.get("remove_edges", []),
                "remove_nodes": payload.get("remove_nodes", []),
            }
            assert dumps(delta.to_json()) == dumps(expected)

    @given(DETECTION)
    @FUZZ
    def test_detection_result(self, payload):
        result = decodes_or_raises(DetectionResult.from_json, payload, ResultFormatError)
        if result is not None:
            assert type(result.method) is str
            assert result.objective is None or type(result.objective) is float
            initiators = {repr(decode_node(n)): n for n in payload["initiators"]}
            by_node = lambda entry: repr(decode_node(entry[0]))  # noqa: E731
            expected = {
                "format": DetectionResult.JSON_FORMAT,
                "method": payload["method"],
                "initiators": [initiators[key] for key in sorted(initiators)],
                "states": sorted(payload["states"], key=by_node),
                "trees": [canonical_graph(tree) for tree in payload["trees"]],
                "objective": exact_weight(payload["objective"]),
            }
            assert dumps(result.to_json()) == dumps(expected)

    @given(DIFFUSION)
    @FUZZ
    def test_diffusion_result(self, payload):
        result = decodes_or_raises(DiffusionResult.from_json, payload, ResultFormatError)
        if result is not None:
            assert type(result.rounds) is int
            assert all(type(e.round) is int and type(e.was_flip) is bool for e in result.events)
            fields = ("format", "seeds", "final_states", "events", "rounds")
            assert dumps(result.to_json()) == dumps({key: payload[key] for key in fields})

    @given(BODIES)
    @FUZZ
    def test_parse_body(self, raw):
        payload = decodes_or_raises(wire.parse_body, raw, WireFormatError)
        if payload is not None:
            assert payload["schema"] == wire.WIRE_SCHEMA

    @given(LOG_LINES)
    @FUZZ
    def test_event_log_line(self, line):
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "events.jsonl"
            path.write_text(line + "\n", encoding="utf-8")
            decodes_or_raises(read_event_log, path, EventLogFormatError)


# -- round trips ---------------------------------------------------------------


def edge_rows(graph):
    return [(u, v, d.sign, d.weight) for u, v, d in graph.edges()]


class TestRoundTrips:
    @given(graphs())
    @ROUND_TRIP
    def test_graph(self, graph):
        payload = json.loads(json.dumps(encode_graph(graph)))
        decoded = decode_graph(payload)
        assert decoded.name == graph.name
        assert decoded.states() == graph.states()
        # Payload order is kept: repr-sorted nodes, edges by (u, v) repr.
        assert decoded.nodes() == [decode_node(n) for n, _ in payload["nodes"]]
        assert decoded.nodes() == sorted(graph.nodes(), key=repr)
        assert edge_rows(decoded) == sorted(edge_rows(graph), key=lambda e: (repr(e[0]), repr(e[1])))
        assert encode_graph(decoded) == payload

    @given(DELTAS)
    @ROUND_TRIP
    def test_delta(self, delta):
        back = SnapshotDelta.from_json(json.loads(json.dumps(delta.to_json())))
        assert back == delta
        assert list(back.states.items()) == list(delta.states.items())

    @given(DETECTIONS)
    @ROUND_TRIP
    def test_detection_result(self, result):
        payload = json.loads(json.dumps(result.to_json()))
        back = DetectionResult.from_json(payload)
        assert (back.method, back.initiators, back.states, back.objective) == (
            result.method, result.initiators, result.states, result.objective
        )
        assert [encode_graph(t) for t in back.trees] == [encode_graph(t) for t in result.trees]
        assert back.to_json() == payload

    @given(DIFFUSIONS)
    @ROUND_TRIP
    def test_diffusion_result(self, result):
        back = DiffusionResult.from_json(json.loads(json.dumps(result.to_json())))
        assert back == result
        assert list(back.seeds.items()) == list(result.seeds.items())
        assert list(back.final_states.items()) == list(result.final_states.items())
