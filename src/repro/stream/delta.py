"""Snapshot deltas — the unit of change in a streamed infection.

The paper analyses one static infected snapshot; real rumor traffic is a
stream of *state changes* over a live network. A :class:`SnapshotDelta`
captures one batch of such changes:

* ``states`` — node-state transitions: infections (inactive → ±1),
  opinion flips (+1 ↔ -1) and recoveries (±1 → inactive). Assigning a
  state to an unknown node creates it.
* ``add_edges`` / ``remove_edges`` — directed signed-edge churn (new
  follows, severed links). Added edges create missing endpoints.
* ``remove_nodes`` — account deletion: the node and every incident edge
  disappear.

Deltas are value objects: :func:`apply_delta` mutates a live
:class:`~repro.graphs.signed_digraph.SignedDiGraph` in place and returns
the set of touched nodes, which is what the incremental component
maintenance in :mod:`repro.stream.engine` keys its dirty-tracking on.
The JSON codec (``to_json`` / ``from_json``) spells node ids, states
and signed edges as :mod:`repro.codec` does for graphs, so a delta
round-trips through the JSONL event log (:mod:`repro.stream.events`)
without int/str ambiguity and nothing it reads is coerced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.codec import (
    CacheCodecError,
    decode_edge,
    decode_node,
    decode_states,
    encode_node,
    encode_states,
)
from repro.errors import DeltaApplicationError, EdgeNotFoundError, NodeNotFoundError
from repro.graphs.signed_digraph import SignedDiGraph
from repro.types import Node, NodeState


@dataclass
class SnapshotDelta:
    """One batch of node-state and edge churn against a live snapshot.

    Example:
        >>> delta = SnapshotDelta(
        ...     states={"u": NodeState.POSITIVE},
        ...     add_edges=[("u", "v", 1, 0.5)],
        ... )
        >>> sorted(delta.touched())
        ['u', 'v']
    """

    states: Dict[Node, NodeState] = field(default_factory=dict)
    add_edges: List[Tuple[Node, Node, int, float]] = field(default_factory=list)
    remove_edges: List[Tuple[Node, Node]] = field(default_factory=list)
    remove_nodes: List[Node] = field(default_factory=list)

    def is_empty(self) -> bool:
        """True when the delta carries no change at all."""
        return not (
            self.states or self.add_edges or self.remove_edges or self.remove_nodes
        )

    def touched(self) -> Set[Node]:
        """Every node this delta references (endpoints included)."""
        nodes: Set[Node] = set(self.states)
        for u, v, _, _ in self.add_edges:
            nodes.add(u)
            nodes.add(v)
        for u, v in self.remove_edges:
            nodes.add(u)
            nodes.add(v)
        nodes.update(self.remove_nodes)
        return nodes

    # -- JSON codec -----------------------------------------------------

    def to_json(self) -> dict:
        """JSON-ready encoding (see :mod:`repro.stream.events`).

        Raises:
            CacheCodecError: when a node identifier is not int or str.
        """
        return {
            "type": "delta",
            "states": encode_states(self.states),
            "add_edges": [
                [encode_node(u), encode_node(v), int(sign), float(weight)]
                for u, v, sign, weight in self.add_edges
            ],
            "remove_edges": [
                [encode_node(u), encode_node(v)] for u, v in self.remove_edges
            ],
            "remove_nodes": [encode_node(n) for n in self.remove_nodes],
        }

    @classmethod
    def from_json(cls, payload: dict) -> "SnapshotDelta":
        """Inverse of :meth:`to_json` (unknown keys are ignored, missing
        fields are empty).

        Raises:
            CacheCodecError: on anything :meth:`to_json` cannot write.
        """
        if type(payload) is not dict:
            raise CacheCodecError(
                f"a delta must be a JSON object, got {type(payload).__name__}"
            )
        return cls(
            states=decode_states(payload.get("states", [])),
            add_edges=[decode_edge(item) for item in _list(payload, "add_edges")],
            remove_edges=[_decode_link(item) for item in _list(payload, "remove_edges")],
            remove_nodes=[decode_node(n) for n in _list(payload, "remove_nodes")],
        )


def _list(payload: dict, name: str) -> list:
    """A delta's list field (empty when absent)."""
    value = payload.get(name, [])
    if type(value) is not list:
        raise CacheCodecError(
            f"delta field {name!r} must be a list, got {type(value).__name__}"
        )
    return value


def _decode_link(item: object) -> Tuple[Node, Node]:
    """A removed edge's endpoints from ``[u, v]``."""
    if type(item) is not list or len(item) != 2:
        raise CacheCodecError("malformed removed edge: expected [node, node]")
    return decode_node(item[0]), decode_node(item[1])


def apply_delta(graph: SignedDiGraph, delta: SnapshotDelta) -> Set[Node]:
    """Apply ``delta`` to ``graph`` in place; return the touched nodes.

    Application order is states → add_edges → remove_edges →
    remove_nodes, so a single delta may infect a new node and wire it up
    in one step. Removed nodes are reported as touched even though they
    are gone afterwards.

    Raises:
        DeltaApplicationError: when the delta removes an edge or node the
            snapshot does not have (streams must be replayed in order —
            an out-of-order or duplicated event log fails loudly instead
            of silently drifting).
    """
    touched: Set[Node] = set()
    for node, state in delta.states.items():
        state = NodeState(state)
        if graph.has_node(node):
            graph.set_state(node, state)
        else:
            graph.add_node(node, state)
        touched.add(node)
    for u, v, sign, weight in delta.add_edges:
        graph.add_edge(u, v, sign, weight)
        touched.add(u)
        touched.add(v)
    for u, v in delta.remove_edges:
        try:
            graph.remove_edge(u, v)
        except EdgeNotFoundError:
            raise DeltaApplicationError(
                f"delta removes edge ({u!r} -> {v!r}) which is not in the snapshot"
            ) from None
        touched.add(u)
        touched.add(v)
    for node in delta.remove_nodes:
        try:
            neighbors = graph.neighbors(node)
        except NodeNotFoundError:
            raise DeltaApplicationError(
                f"delta removes node {node!r} which is not in the snapshot"
            ) from None
        touched.update(neighbors)
        graph.remove_node(node)
        touched.add(node)
    return touched
