"""Centrality-based source detectors (unsigned classics, per component).

Each detector scores every node of each infected connected component and
nominates the per-component argmax as an initiator — the classic
single-source assumption applied component-wise, giving them at least a
fighting chance on multi-initiator snapshots.

Budgeted detection (``detect_with_budget``) keeps the per-component
argmax as the mandatory core (every component needs at least one
explanation, mirroring RID's every-tree-needs-its-root feasibility
rule) and spends any remaining budget on the globally best-scoring
unselected nodes, ties broken repr-sorted. Feasible budgets therefore
span ``[number of components, number of infected nodes]``.

Rumor centrality (Shah & Zaman, IEEE Trans. IT 2011): for a tree ``T``
with ``n`` nodes, the rumor centrality of node ``v`` is

    R(v, T) = n! · Π_{u ∈ T} 1 / t_u^v

where ``t_u^v`` is the size of the subtree rooted at ``u`` when the tree
is rooted at ``v``. The maximum-likelihood single source of a
SI-spreading rumor on a regular tree is the rumor center — the node
maximising ``R``. :func:`rumor_centralities` is the O(n) two-pass
message-passing algorithm in log space (the factorial overflows
instantly otherwise); :class:`RumorCentralityDetector` extends it to
general graphs with the standard BFS-tree heuristic (:func:`bfs_tree`).
"""

from __future__ import annotations

import abc
import math
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.core.components import infected_components
from repro.detectors.base import DetectionResult, Detector
from repro.errors import ConfigError, NotATreeError
from repro.graphs.signed_digraph import SignedDiGraph
from repro.obs.recorder import Recorder
from repro.types import Node


@dataclass
class CentralityConfig:
    """The centrality detectors take no hyper-parameters; this empty
    config exists so every registry entry has a config dataclass and a
    content digest."""

    def validate(self) -> None:
        """Nothing to check — kept for config-protocol uniformity."""


def _undirected_adjacency(graph: SignedDiGraph) -> Dict[Node, List[Node]]:
    """Undirected adjacency lists (deduplicated, deterministic order)."""
    return {node: sorted(graph.neighbors(node), key=repr) for node in graph.nodes()}


def _check_is_tree(adjacency: Dict[Node, List[Node]]) -> None:
    """Validate that the undirected view is a connected tree."""
    n = len(adjacency)
    if n == 0:
        raise NotATreeError("empty graph has no rumor center")
    edge_count = sum(len(neigh) for neigh in adjacency.values()) // 2
    if edge_count != n - 1:
        raise NotATreeError(f"tree must have n-1 edges, found {edge_count} for n={n}")
    # Connectivity check.
    start = next(iter(adjacency))
    seen = {start}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for neighbor in adjacency[node]:
            if neighbor not in seen:
                seen.add(neighbor)
                queue.append(neighbor)
    if len(seen) != n:
        raise NotATreeError("tree must be connected")


def rumor_centralities(tree: SignedDiGraph) -> Dict[Node, float]:
    """Log rumor centrality of every node of an (undirected-view) tree.

    Returns ``log R(v, T)`` per node; the argmax is the rumor center.
    Uses the classic re-rooting trick: compute subtree sizes for an
    arbitrary root, then propagate

        R(child) = R(parent) · t_child^root / (n − t_child^root)

    Raises:
        NotATreeError: if the undirected view is not a connected tree.
    """
    adjacency = _undirected_adjacency(tree)
    _check_is_tree(adjacency)
    n = len(adjacency)
    root = sorted(adjacency, key=repr)[0]

    # Iterative post-order for subtree sizes under `root`.
    parent: Dict[Node, Optional[Node]] = {root: None}
    order: List[Node] = []
    queue = deque([root])
    while queue:
        node = queue.popleft()
        order.append(node)
        for neighbor in adjacency[node]:
            if neighbor not in parent:
                parent[neighbor] = node
                queue.append(neighbor)
    subtree = {node: 1 for node in adjacency}
    for node in reversed(order):
        if parent[node] is not None:
            subtree[parent[node]] += subtree[node]

    # log R(root) = log n! - sum_u log t_u^root
    log_r_root = math.lgamma(n + 1) - sum(math.log(subtree[u]) for u in order)
    log_r: Dict[Node, float] = {root: log_r_root}
    for node in order:
        if parent[node] is None:
            continue
        log_r[node] = (
            log_r[parent[node]] + math.log(subtree[node]) - math.log(n - subtree[node])
        )
    return log_r


def rumor_centrality(tree: SignedDiGraph, node: Node) -> float:
    """Log rumor centrality of one node (convenience accessor)."""
    return rumor_centralities(tree)[node]


def bfs_tree(graph: SignedDiGraph, root: Node) -> SignedDiGraph:
    """A BFS spanning tree of the undirected view, rooted at ``root``.

    The standard heuristic for applying rumor centrality to non-tree
    graphs: score each candidate on its own BFS tree.
    """
    tree = SignedDiGraph(name=f"bfs-tree-{root!r}")
    tree.add_node(root, graph.state(root))
    queue = deque([root])
    seen = {root}
    while queue:
        node = queue.popleft()
        for neighbor in sorted(graph.neighbors(node), key=repr):
            if neighbor not in seen:
                seen.add(neighbor)
                tree.add_node(neighbor, graph.state(neighbor))
                # Orient parent -> child; sign/weight taken from whichever
                # direction exists in the original graph.
                if graph.has_edge(node, neighbor):
                    data = graph.edge(node, neighbor)
                else:
                    data = graph.edge(neighbor, node)
                tree.add_edge(node, neighbor, int(data.sign), data.weight)
                queue.append(neighbor)
    return tree


def undirected_distances(graph: SignedDiGraph, source: Node) -> Dict[Node, int]:
    """BFS hop distances from ``source`` over the undirected view."""
    distances = {source: 0}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for neighbor in graph.neighbors(node):
            if neighbor not in distances:
                distances[neighbor] = distances[node] + 1
                queue.append(neighbor)
    return distances


def select_with_budget(
    component_scores: List[Dict[Node, float]], budget: int, method: str
) -> Set[Node]:
    """Shared budgeted-selection rule for score-based detectors.

    One mandatory argmax per component, then the remaining budget goes
    to the globally best-scoring unselected nodes. Deterministic: all
    ties break on ``repr`` order.

    Raises:
        ConfigError: when ``budget`` falls outside the feasible range
            ``[len(component_scores), total node count]``.
    """
    total = sum(len(scores) for scores in component_scores)
    low = len(component_scores)
    if not low <= budget <= total:
        raise ConfigError(
            f"{method}: budget must be in [{low}, {total}] (one initiator "
            f"per infected component, at most every scored node), got {budget}"
        )
    selected: Set[Node] = set()
    for scores in component_scores:
        best = max(sorted(scores, key=repr), key=lambda n: scores[n])
        selected.add(best)
    if budget > len(selected):
        remainder: List[Tuple[float, str, Node]] = sorted(
            (
                (-score, repr(node), node)
                for scores in component_scores
                for node, score in scores.items()
                if node not in selected
            ),
        )
        for _neg_score, _key, node in remainder[: budget - len(selected)]:
            selected.add(node)
    return selected


class CentralityDetector(Detector):
    """Shared per-component argmax scaffolding.

    Args:
        config: the (empty) :class:`CentralityConfig`; optional, so the
            registry builds every detector as ``Cls(config)``.
    """

    name = "centrality"

    def __init__(self, config: Optional[CentralityConfig] = None) -> None:
        self.config = config or CentralityConfig()
        self.config.validate()

    @abc.abstractmethod
    def score_component(self, component: SignedDiGraph) -> Dict[Node, float]:
        """Score every node of one component; higher = more source-like."""

    def _component_scores(
        self, infected: SignedDiGraph, rec: Recorder
    ) -> List[Dict[Node, float]]:
        scores: List[Dict[Node, float]] = []
        for component in infected_components(infected):
            with rec.span("centrality.score_component", method=self.name):
                scores.append(self.score_component(component))
        return scores

    def _detect(self, infected: SignedDiGraph, recorder: Recorder) -> DetectionResult:
        initiators: Set[Node] = set()
        for scores in self._component_scores(infected, recorder):
            if scores:
                best = max(sorted(scores, key=repr), key=lambda n: scores[n])
                initiators.add(best)
        return DetectionResult(method=self.name, initiators=initiators)

    def _select(
        self, infected: SignedDiGraph, budget: int, recorder: Recorder
    ) -> Set[Node]:
        return select_with_budget(
            self._component_scores(infected, recorder), budget, method=self.name
        )


class RumorCentralityDetector(CentralityDetector):
    """Shah-Zaman rumor center of each component (BFS-tree heuristic)."""

    name = "rumor-centrality"

    def score_component(self, component: SignedDiGraph) -> Dict[Node, float]:
        nodes = sorted(component.nodes(), key=repr)
        if len(nodes) == 1:
            return {nodes[0]: 0.0}
        scores: Dict[Node, float] = {}
        for node in nodes:
            tree = bfs_tree(component, node)
            scores[node] = rumor_centralities(tree)[node]
        return scores


class JordanCenterDetector(CentralityDetector):
    """Node minimising the maximum hop distance to infected nodes."""

    name = "jordan-center"

    def score_component(self, component: SignedDiGraph) -> Dict[Node, float]:
        scores: Dict[Node, float] = {}
        for node in component.nodes():
            distances = undirected_distances(component, node)
            eccentricity = max(distances.values()) if distances else 0
            scores[node] = -float(eccentricity)
        return scores


class DistanceCenterDetector(CentralityDetector):
    """Node minimising the summed hop distance to infected nodes."""

    name = "distance-center"

    def score_component(self, component: SignedDiGraph) -> Dict[Node, float]:
        scores: Dict[Node, float] = {}
        for node in component.nodes():
            distances = undirected_distances(component, node)
            scores[node] = -float(sum(distances.values()))
        return scores
