"""Certainty-cover detector: the Lemma 3.1 objective on real snapshots.

The NP-hard exact-ISOMIT variant of Lemma 3.1 asks for the minimum
initiator set achieving probability-1 inference. On arbitrary infected
snapshots that is a set-cover instance over *certainty closures*: node
``u`` certainly activates everything reachable through links whose MFC
attempt probability is 1 (boost-saturated positive links, weight-1
negative links) and whose sign chain is consistent with the observed
states. The greedy ln(n)-approximation of set cover then yields a
detector: repeatedly pick the node certainly explaining the most
still-unexplained infected users.

This bridges the paper's hardness construction (Sec. III-C) and its
heuristic pipeline: on snapshots whose activation structure is mostly
certain, the greedy cover is a strong, simple baseline; where weights
are graded it under-explains and RID's probabilistic machinery wins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Set

from repro.detectors.base import DetectionResult, Detector
from repro.errors import ConfigError
from repro.graphs.signed_digraph import SignedDiGraph
from repro.obs.recorder import Recorder
from repro.types import Node, NodeState


@dataclass
class CertaintyCoverConfig:
    """Hyper-parameters of :class:`CertaintyCoverDetector`.

    Attributes:
        alpha: MFC boosting coefficient defining certain links.
        budget: optional cap on the cover size (None = run the greedy
            until every infected node is explained — uncovered residual
            nodes each become their own initiator, exactly as in the
            reduction's exchange argument). A cap, not an exact count:
            the registry row reports no budget support.
    """

    alpha: float = 3.0
    budget: Optional[int] = None

    def validate(self) -> None:
        """Raise :class:`ConfigError` on out-of-range settings."""
        if self.alpha < 1.0:
            raise ConfigError(f"alpha must be >= 1, got {self.alpha}")
        if self.budget is not None and self.budget < 1:
            raise ConfigError(f"budget must be >= 1 or None, got {self.budget}")


def consistent_certainty_closure(
    infected: SignedDiGraph, source: Node, alpha: float
) -> Set[Node]:
    """Nodes certainly activated from ``source`` with the observed states.

    A link ``(u, v)`` carries certainty iff its MFC attempt probability
    is 1 (``min(1, α·w) = 1`` for positive links, ``w = 1`` for
    negative) *and* it is sign-consistent (``s(u)·s(u,v) = s(v)``) —
    an inconsistent link cannot have produced the observed state.
    """
    closure = {source}
    frontier = [source]
    while frontier:
        node = frontier.pop()
        s_node = infected.state(node)
        if not s_node.is_active:
            continue
        for _, target, data in infected.out_edges(node):
            if target in closure:
                continue
            probability = (
                min(1.0, alpha * data.weight) if int(data.sign) == 1 else data.weight
            )
            if probability < 1.0:
                continue
            if int(s_node) * int(data.sign) != int(infected.state(target)):
                continue
            closure.add(target)
            frontier.append(target)
    return closure


class CertaintyCoverDetector(Detector):
    """Greedy minimum certainty-cover of the infected snapshot.

    Args:
        config: the :class:`CertaintyCoverConfig` (defaults when omitted).
    """

    name = "certainty-cover"

    def __init__(self, config: Optional[CertaintyCoverConfig] = None) -> None:
        self.config = config or CertaintyCoverConfig()
        self.config.validate()

    def _detect(self, infected: SignedDiGraph, recorder: Recorder) -> DetectionResult:
        alpha, budget = self.config.alpha, self.config.budget
        nodes = sorted(infected.nodes(), key=repr)
        closures: Dict[Node, FrozenSet[Node]] = {
            node: frozenset(consistent_certainty_closure(infected, node, alpha))
            for node in nodes
        }
        uncovered: Set[Node] = set(nodes)
        chosen: Dict[Node, NodeState] = {}
        while uncovered:
            if budget is not None and len(chosen) >= budget:
                break
            best = max(
                nodes,
                key=lambda n: (len(closures[n] & uncovered), n not in chosen, repr(n)),
            )
            gain = len(closures[best] & uncovered)
            if gain == 0 or best in chosen:
                break
            chosen[best] = infected.state(best)
            uncovered -= closures[best]
        # Residual nodes (unreachable with certainty) explain themselves.
        if budget is None:
            for node in sorted(uncovered, key=repr):
                chosen[node] = infected.state(node)
        return DetectionResult(
            method=self.name, initiators=set(chosen), states=dict(chosen)
        )
