"""Common interface and result structures for diffusion models.

Every model consumes a *diffusion network* (edges oriented in the
direction information flows, per Definition 2) plus a seed assignment
``{node: initial state}``, and produces a :class:`DiffusionResult`:
the final node states, the chronological activation-event log (including
MFC's flip events), and convenience views such as the realised
activation-link forest (Definition 4) and the infected subgraph
(Definition 3) that the detection pipeline consumes.
"""

from __future__ import annotations

import abc
import operator
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.codec import (
    CacheCodecError,
    decode_node,
    decode_state,
    decode_states,
    encode_node,
    encode_states,
)
from repro.errors import InvalidModelParameterError, InvalidSeedError, ResultFormatError
from repro.graphs.signed_digraph import SignedDiGraph
from repro.types import INITIATOR_STATES, Node, NodeState
from repro.utils.rng import RandomSource, spawn_rng


@dataclass(frozen=True)
class ActivationEvent:
    """One successful activation (or state flip) during a cascade.

    Attributes:
        round: diffusion step at which the target became/changed active
            (seeds are round 0).
        source: activating node; ``None`` for seed activations.
        target: node whose state was set.
        state: the state the target took.
        was_flip: True when the target was already active and its state
            was flipped (MFC-specific).
    """

    round: int
    source: Optional[Node]
    target: Node
    state: NodeState
    was_flip: bool = False


@dataclass
class DiffusionResult:
    """Outcome of one simulated cascade.

    Attributes:
        seeds: the initiator assignment the cascade started from.
        final_states: state of every *touched* node at termination
            (untouched nodes are implicitly inactive).
        events: chronological activation log.
        rounds: number of diffusion rounds executed (0 for seed-only).
    """

    seeds: Dict[Node, NodeState]
    final_states: Dict[Node, NodeState]
    events: List[ActivationEvent] = field(default_factory=list)
    rounds: int = 0

    def infected_nodes(self) -> List[Node]:
        """Nodes ending the cascade with a definite opinion."""
        return [n for n, s in self.final_states.items() if s.is_active]

    def num_infected(self) -> int:
        """Size of the final infected set."""
        return sum(1 for s in self.final_states.values() if s.is_active)

    def activation_links(self) -> Dict[Node, Node]:
        """Map each non-seed infected node to its *final* activator.

        Per Definition 4 each node is activated by exactly one node via its
        activation link; under MFC the relevant link is the last successful
        (re-)activation, since flips override earlier activations.
        """
        last_source: Dict[Node, Node] = {}
        for event in self.events:
            if event.source is not None:
                last_source[event.target] = event.source
        # Seeds have no incoming activation link even if they were later
        # flipped - they remain the cascade roots for ground-truth purposes,
        # unless a flip rewired them under a different activator.
        return last_source

    def cascade_forest(self, diffusion: SignedDiGraph) -> SignedDiGraph:
        """The realised activation-link forest as a signed graph.

        Nodes carry their final states; each activation link copies the
        sign and weight of the corresponding diffusion edge.
        """
        forest = SignedDiGraph(name="cascade-forest")
        for node in self.infected_nodes():
            forest.add_node(node, self.final_states[node])
        for target, source in self.activation_links().items():
            if forest.has_node(source) and forest.has_node(target):
                data = diffusion.edge(source, target)
                forest.add_edge(source, target, int(data.sign), data.weight)
        return forest

    def apply_states(self, graph: SignedDiGraph) -> SignedDiGraph:
        """Write the final states onto ``graph`` in place and return it."""
        for node, state in self.final_states.items():
            if graph.has_node(node):
                graph.set_state(node, state)
        return graph

    def infected_network(self, diffusion: SignedDiGraph) -> SignedDiGraph:
        """The infected diffusion network ``G_I`` (Definition 3).

        Induced subgraph of ``diffusion`` over infected nodes, with final
        states written onto the nodes.
        """
        infected = self.infected_nodes()
        sub = diffusion.subgraph(infected, name="infected")
        for node in infected:
            sub.set_state(node, self.final_states[node])
        return sub

    # -- stable JSON codec ----------------------------------------------

    #: Format tag stamped by :meth:`to_json`; :meth:`from_json` accepts
    #: only this tag (shared with the ``repro.serve/v1`` wire schema).
    JSON_FORMAT = "repro.diffusion-result/v1"

    def to_json(self) -> dict:
        """Full round-trip encoding (seeds, final states, event log) in
        the :mod:`repro.codec` spelling. Inverse: :meth:`from_json`.

        Raises:
            CacheCodecError: when a node identifier is not int or str.
        """
        return {
            "seeds": encode_states(self.seeds),
            "final_states": encode_states(self.final_states),
            "events": [
                [
                    e.round,
                    None if e.source is None else encode_node(e.source),
                    encode_node(e.target),
                    int(e.state),
                    bool(e.was_flip),
                ]
                for e in self.events
            ],
            "rounds": self.rounds,
            "format": self.JSON_FORMAT,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "DiffusionResult":
        """Inverse of :meth:`to_json`.

        Raises:
            ResultFormatError: on a non-dict payload, a wrong/missing
                format tag, or a missing or malformed field (rounds are
                non-negative JSON ints, flip flags JSON bools).
        """
        if not isinstance(payload, dict) or payload.get("format") != cls.JSON_FORMAT:
            raise ResultFormatError(
                f"payload is not a serialised DiffusionResult "
                f"(expected format {cls.JSON_FORMAT!r})"
            )
        try:
            events, rounds = payload["events"], payload["rounds"]
            if type(events) is not list or type(rounds) is not int or rounds < 0:
                raise CacheCodecError("'events' must be a list, 'rounds' an int >= 0")
            return cls(
                seeds=decode_states(payload["seeds"]),
                final_states=decode_states(payload["final_states"]),
                events=[_decode_event(item) for item in events],
                rounds=rounds,
            )
        except (KeyError, CacheCodecError) as exc:
            raise ResultFormatError(
                f"malformed DiffusionResult payload: {exc}"
            ) from exc


def _decode_event(item: object) -> ActivationEvent:
    if type(item) is list and len(item) == 5:
        rnd, source, target, state, flip = item
        if type(rnd) is int and rnd >= 0 and type(flip) is bool:
            source = None if source is None else decode_node(source)
            return ActivationEvent(rnd, source, decode_node(target), decode_state(state), flip)
    raise CacheCodecError("an event must be [round, source or null, target, state, was_flip]")


def check_seeds(diffusion: SignedDiGraph, seeds: Dict[Node, NodeState]) -> Dict[Node, NodeState]:
    """Validate a seed assignment against the network.

    Raises:
        InvalidSeedError: on empty seeds, unknown nodes, or states outside
            ``{-1, +1}``.
    """
    if not seeds:
        raise InvalidSeedError("seed assignment is empty")
    validated: Dict[Node, NodeState] = {}
    for node, state in seeds.items():
        if not diffusion.has_node(node):
            raise InvalidSeedError(f"seed node {node!r} is not in the network")
        state = NodeState(state)
        if state not in INITIATOR_STATES:
            raise InvalidSeedError(
                f"seed state for {node!r} must be +1 or -1, got {state!r}"
            )
        validated[node] = state
    return validated


def check_round_cap(value: int, name: str, minimum: int) -> int:
    """Validate a model's round cap and return it as a plain ``int``.

    A float or a bool is refused, not truncated or counted as 1, so a
    JSON ``2.5`` or ``true`` from ``/v1/simulate`` is a 400.

    Raises:
        InvalidModelParameterError: on a non-integer or a value below
            ``minimum``.
    """
    if isinstance(value, bool):
        raise InvalidModelParameterError(f"{name} must be an int, got {value!r}")
    try:
        value = operator.index(value)
    except TypeError:
        raise InvalidModelParameterError(f"{name} must be an int, got {value!r}") from None
    if value < minimum:
        raise InvalidModelParameterError(f"{name} must be >= {minimum}, got {value}")
    return value


class DiffusionModel(abc.ABC):
    """Abstract base for all diffusion models.

    Subclasses implement :meth:`run`; shared seed validation and RNG
    handling live here. Models are stateless between runs — all cascade
    state lives in the returned :class:`DiffusionResult`.
    """

    #: Human-readable model name (class attribute on subclasses).
    name: str = "diffusion"

    @abc.abstractmethod
    def run(
        self,
        diffusion: SignedDiGraph,
        seeds: Dict[Node, NodeState],
        rng: RandomSource = None,
    ) -> DiffusionResult:
        """Simulate one cascade from ``seeds`` over ``diffusion``."""

    def _prepare(
        self,
        diffusion: SignedDiGraph,
        seeds: Dict[Node, NodeState],
        rng: RandomSource,
    ) -> Tuple[Dict[Node, NodeState], "random.Random", Dict[Node, NodeState], List[ActivationEvent]]:
        """Validate seeds, spawn the RNG, and build the initial state/event log."""
        validated = check_seeds(diffusion, seeds)
        random = spawn_rng(rng, self.name)
        states: Dict[Node, NodeState] = dict(validated)
        events = [
            ActivationEvent(round=0, source=None, target=node, state=state)
            for node, state in sorted(validated.items(), key=lambda kv: repr(kv[0]))
        ]
        return validated, random, states, events


def sorted_nodes(nodes) -> list:
    """Deterministic node ordering (repr-based, robust to mixed types)."""
    return sorted(nodes, key=repr)
