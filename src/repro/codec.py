"""The one JSON spelling of node ids, state maps, signed edges and graphs.

The ``repro.serve/v1`` wire, the ``repro.stream/v1`` event log, the
result and delta payloads, the artifact store and the trial cache all
build on this module:

* node id: ``["i", int]`` or ``["s", str]``;
* state map: ``[[node, state], ...]`` in iteration order, a state being a
  JSON int in ``{-1, 0, 1, 2}`` (``2`` is the paper's '?');
* edge, Definition 1's signed link: ``[u, v, sign, weight]``, a sign
  being a JSON int in ``{-1, 1}`` and a weight a JSON number in ``[0, 1]``;
* graph: ``{"name": str, "nodes": [[node, state], ...], "edges": [edge,
  ...]}``, repr-sorted so that equal graphs encode to equal bytes.

Encoders refuse only nodes that are not an ``int`` or ``str``. Decoders
read outside input and accept exactly what the encoders write: nothing
is coerced (``["i", 1.9]`` is not node 1, a sign ``true`` is not ``+1``,
a weight ``"0.5"`` is not 0.5), and a graph may not list a node or an
edge twice, nor name an edge endpoint missing from its nodes. Every
refusal is a :class:`CacheCodecError`.
"""

from __future__ import annotations

import reprlib
from typing import Any, Dict, List, Mapping, Tuple

from repro.errors import InvalidWeightError
from repro.graphs.signed_digraph import SignedDiGraph
from repro.types import Node, NodeState
from repro.utils.validation import check_weight


class CacheCodecError(TypeError):
    """A value the codec cannot write, or a payload it will not read (a
    ``TypeError``, so ``except (KeyError, TypeError, ValueError)`` catches it)."""


def _malformed(what: str, value: Any, expected: str) -> CacheCodecError:
    # reprlib bounds the message on huge or deeply nested input.
    return CacheCodecError(f"malformed {what} {reprlib.repr(value)}: expected {expected}")


def encode_node(node: Node) -> List[Any]:
    """``["i", int]`` or ``["s", str]``; any other node (a ``bool``
    included) raises :class:`CacheCodecError`."""
    if isinstance(node, bool) or not isinstance(node, (int, str)):
        raise CacheCodecError(
            f"only int and str nodes are cacheable, got {type(node).__name__}"
        )
    return ["i", node] if isinstance(node, int) else ["s", node]


#: The exact type each node typecode carries (a ``bool`` is not an ``int``).
_NODE_TYPES = {"i": int, "s": str}


def decode_node(pair: Any) -> Node:
    """Inverse of :func:`encode_node`."""
    try:
        code, value = pair
        if type(value) is _NODE_TYPES[code] and type(pair) is list:
            return value
    except (KeyError, TypeError, ValueError):
        pass
    raise _malformed("node id", pair, "['i', int] or ['s', str]")


#: Read only after a ``type(...) is int`` check (``True``, ``1.0`` hash as 1).
_STATES = {int(state): state for state in NodeState}


def decode_state(value: Any) -> NodeState:
    """A node state from a JSON int in ``{-1, 0, 1, 2}``."""
    if type(value) is int and value in _STATES:
        return _STATES[value]
    raise _malformed("node state", value, "an int in {-1, 0, 1, 2}")


def encode_states(states: Mapping[Node, NodeState]) -> List[List[Any]]:
    """``[[node, state], ...]`` in the mapping's iteration order."""
    return [[encode_node(n), int(s)] for n, s in states.items()]


def decode_states(pairs: Any) -> Dict[Node, NodeState]:
    """Inverse of :func:`encode_states`; a node listed twice is refused."""
    if type(pairs) is not list:
        raise _malformed("state map", pairs, "a list of [node, state] pairs")
    states: Dict[Node, NodeState] = {}
    for item in pairs:
        if type(item) is not list or len(item) != 2:
            raise _malformed("state entry", item, "[node, state]")
        states[decode_node(item[0])] = decode_state(item[1])
    if len(states) != len(pairs):
        raise CacheCodecError("a state map lists a node twice")
    return states


def decode_edge(item: Any) -> Tuple[Node, Node, int, float]:
    """``(u, v, sign, weight)`` from ``[u, v, sign, weight]``, the edge
    spelling graphs and snapshot deltas share."""
    if type(item) is list and len(item) == 4:
        u, v, sign, weight = item
        if type(sign) is int and (sign == 1 or sign == -1) and type(weight) in (int, float):
            try:
                return decode_node(u), decode_node(v), sign, check_weight(weight)
            except InvalidWeightError:
                pass
    raise _malformed("edge", item, "[node, node, sign in {-1, 1}, weight in [0, 1]]")


def encode_graph(graph: SignedDiGraph) -> Dict[str, Any]:
    """A graph's name, states, signs and weights, nodes and edges
    repr-sorted (no consumer depends on iteration order)."""
    return {
        "name": graph.name,
        "nodes": [
            [encode_node(n), int(graph.state(n))]
            for n in sorted(graph.nodes(), key=repr)
        ],
        "edges": [
            [encode_node(u), encode_node(v), int(d.sign), d.weight]
            for u, v, d in sorted(
                graph.edges(), key=lambda e: (repr(e[0]), repr(e[1]))
            )
        ],
    }


def decode_graph(payload: Any) -> SignedDiGraph:
    """Inverse of :func:`encode_graph`; nodes and edges keep payload order."""
    if type(payload) is not dict:
        raise _malformed("graph", payload, "a JSON object")
    name, nodes, edges = payload.get("name", ""), payload.get("nodes"), payload.get("edges")
    if type(name) is not str or type(nodes) is not list or type(edges) is not list:
        raise CacheCodecError("a graph needs a string 'name' and 'nodes' and 'edges' lists")
    graph = SignedDiGraph(name=name)
    for item in nodes:
        if type(item) is not list or len(item) != 2:
            raise _malformed("node entry", item, "[node, state]")
        graph.add_node(decode_node(item[0]), decode_state(item[1]))
    # add_node skips a repeat, and add_edge creates a missing endpoint or
    # overwrites a repeated edge, so each structural fault shows in a count.
    if graph.number_of_nodes() != len(nodes):
        raise CacheCodecError("a graph lists a node twice")
    for item in edges:
        graph.add_edge(*decode_edge(item))
    if graph.number_of_nodes() != len(nodes):
        raise CacheCodecError("a graph has an edge endpoint missing from its nodes")
    if graph.number_of_edges() != len(edges):
        raise CacheCodecError("a graph lists an edge twice")
    return graph
