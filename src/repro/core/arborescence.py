"""Maximum-weight spanning arborescences — paper Algorithms 2-4 substrate.

The cascade-tree extraction step (Sec. III-E2) finds, inside each
infected connected component, the maximum-likelihood activation forest

    T* = argmax_T  L(T) = Π_{(u,v) ∈ E_T} w(u, v)

using the Chu-Liu/Edmonds algorithm. This module implements Edmonds from
scratch in the paper's own vocabulary:

* :func:`maximum_weight_spanning_graph` — Algorithm 2 (MWSG): every node
  greedily selects its maximum-score incoming edge;
* :func:`find_circles` — detect the cycles that greedy selection creates;
* the cycle **contraction** with score adjustment
  ``w'(u_x, u_o) = w(u_x, u_y) - w(π(u_y), u_y)`` — Algorithm 3 (CC);
* :func:`maximum_spanning_branching` — the full select/contract/expand
  loop (Algorithm 4's engine), run iteratively: contraction levels are
  pushed onto an explicit list and expanded in reverse, so deeply
  nested cycle structures never touch the interpreter recursion limit;
* :func:`split_branching_into_trees` — Algorithm 4's split of the
  branching into its cascade trees. The pipeline's Arborescence stage
  (:mod:`repro.pipeline.stages`) runs both per infected component.

Score transform: maximising ``Π w`` is maximising ``Σ log w``, so the
default score is ``log`` (clamped at a floor for zero weights). The
``raw`` transform reproduces the paper's Algorithm 3 literally (its
subtraction acts on raw weights, i.e. it maximises ``Σ w``); both give a
valid spanning branching, and tests cover both.

Spanning-forest semantics: a node only becomes a tree root when it has no
usable incoming edge at all — every other node receives exactly one
activation link. This is realised by running Edmonds with a virtual root
connected to every node at a score lower than any real alternative, which
simultaneously minimises the number of roots and maximises the likelihood
of the retained links, matching the paper's construction where forest
roots are exactly the in-degree-0 infected users.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ArborescenceError
from repro.graphs.signed_digraph import SignedDiGraph
from repro.types import Edge, Node

#: Floor applied inside the log score so zero-weight edges stay usable
#: (they are worse than any positive-weight edge but better than no tree).
_LOG_FLOOR = 1e-12

#: Magnitude bound on any single transformed edge score: |log(1e-12)| < 28
#: for the log transform, 1 for the raw transform.
_MAX_ABS_SCORE = 30.0


def log_score(weight: float) -> float:
    """``log`` transform: maximising the sum maximises the product of weights."""
    return math.log(max(weight, _LOG_FLOOR))


def raw_score(weight: float) -> float:
    """Identity transform: the paper's literal Algorithm 3 arithmetic."""
    return float(weight)


SCORE_TRANSFORMS: Dict[str, Callable[[float], float]] = {
    "log": log_score,
    "raw": raw_score,
}


@dataclass
class _ArbEdge:
    """Internal edge record threaded through contractions.

    ``original`` always refers to the edge of the *input* graph this
    record descends from, so expansion is a constant-time lookup.
    """

    u: Node
    v: Node
    score: float
    original: Edge


def maximum_weight_spanning_graph(
    graph: SignedDiGraph,
    score: str = "log",
) -> Dict[Node, Tuple[Node, float]]:
    """Algorithm 2 (MWSG): each node selects its best incoming edge.

    Returns:
        Mapping ``v -> (u, score)`` for every node ``v`` with at least one
        in-edge; in-degree-0 nodes are absent (they are forest roots).
    """
    transform = SCORE_TRANSFORMS[score]
    best: Dict[Node, Tuple[Node, float]] = {}
    for v in graph.nodes():
        chosen: Optional[Tuple[Node, float]] = None
        for u, _, data in sorted(graph.in_edges(v), key=lambda e: repr(e[0])):
            if u == v:
                continue
            s = transform(data.weight)
            if chosen is None or s > chosen[1]:
                chosen = (u, s)
        if chosen is not None:
            best[v] = chosen
    return best


def find_circles(parent: Dict[Node, Node]) -> List[List[Node]]:
    """Find all directed cycles in a partial functional graph ``v -> parent``.

    ``parent`` maps each node to its single selected in-neighbour; nodes
    without an entry are roots. Each cycle is returned once, as a list of
    its member nodes in traversal order.
    """
    color: Dict[Node, int] = {}  # 0 unseen implicit, 1 in-progress, 2 done
    cycles: List[List[Node]] = []
    # Plain dict iteration: insertion order is deterministic (the caller
    # builds `parent` in a deterministic order), and the set of cycles
    # found is independent of traversal order anyway.
    for start in parent:
        if color.get(start):
            continue
        path: List[Node] = []
        node: Optional[Node] = start
        while node is not None and color.get(node, 0) == 0:
            color[node] = 1
            path.append(node)
            node = parent.get(node)
        if node is not None and color.get(node) == 1:
            # Found a new cycle: the suffix of `path` starting at `node`.
            cycle_start = path.index(node)
            cycles.append(path[cycle_start:])
        for visited in path:
            color[visited] = 2
    return cycles


def _greedy_in_edges(
    nodes: Sequence[Node], edges: Sequence[_ArbEdge], root: Node
) -> Dict[Node, _ArbEdge]:
    """Pick the best-scoring in-edge for every non-root node."""
    best: Dict[Node, _ArbEdge] = {}
    for edge in edges:
        if edge.v == root or edge.u == edge.v:
            continue
        current = best.get(edge.v)
        if current is None or edge.score > current.score:
            best[edge.v] = edge
    missing = [v for v in nodes if v != root and v not in best]
    if missing:
        raise ArborescenceError(
            f"no incoming edge available for nodes {missing[:5]!r}; "
            "the input is not reachable from the root"
        )
    return best


def _max_arborescence(
    nodes: List[Node],
    edges: List[_ArbEdge],
    root: Node,
    next_label: int,
) -> List[_ArbEdge]:
    """Iterative Chu-Liu/Edmonds for a rooted maximum arborescence.

    Select/contract until the greedy selection is acyclic, recording one
    level record per contraction round, then expand the records in
    reverse. (This used to be a recursive function — one stack frame per
    contraction level; deeply nested cycle structures could exceed the
    interpreter recursion limit.)

    Returns the chosen edges (as the internal records, whose ``original``
    fields identify input-graph edges).
    """
    # (node_of, cycle_edges) per contraction round, innermost last.
    levels: List[Tuple[Dict[Node, Node], Dict[Node, Dict[Node, _ArbEdge]], Dict[Edge, Node]]] = []
    while True:
        best = _greedy_in_edges(nodes, edges, root)
        cycles = find_circles({v: e.u for v, e in best.items()})
        if not cycles:
            chosen = list(best.values())
            break

        # --- Contract every cycle (Algorithm 3) -------------------------
        node_of: Dict[Node, Node] = {}  # member -> supernode label
        cycle_edges: Dict[Node, Dict[Node, _ArbEdge]] = {}  # supernode -> {member: its cycle in-edge}
        for cycle in cycles:
            supernode: Node = ("__cycle__", next_label)
            next_label += 1
            cycle_edges[supernode] = {member: best[member] for member in cycle}
            for member in cycle:
                node_of[member] = supernode

        # Order is irrelevant here (the node list only feeds the coverage
        # check in _greedy_in_edges); dict-from-keys preserves determinism
        # without paying for a repr sort on every contraction level.
        contracted_nodes: List[Node] = list(
            dict.fromkeys(node_of.get(n, n) for n in nodes)
        )
        # For each contracted in-edge we must remember which cycle member it
        # actually enters, to know which cycle edge to drop on expansion.
        # Keyed by the edge's `original` identity, which is unique per level
        # and survives the copies deeper contraction levels make.
        entry_member: Dict[Edge, Node] = {}
        # Parallel-edge dedup: edges into a contracted node are all adjusted
        # relative to the cycle edge their own entry point displaces, and
        # within one (source, target) supernode pair only the best adjusted
        # score can ever be selected — at this level or any deeper one (later
        # adjustments subtract the same displaced score from every parallel
        # edge). Keeping only the max keeps each level's edge count bounded
        # by the contracted graph's pair count instead of the input size.
        best_pair: Dict[Tuple[Node, Node], _ArbEdge] = {}
        for edge in edges:
            cu = node_of.get(edge.u, edge.u)
            cv = node_of.get(edge.v, edge.v)
            if cu == cv:
                continue  # intra-cycle edge: dropped
            if cv in cycle_edges:
                # Edge entering a cycle: adjust the score by the cycle edge it
                # would displace (w'(u_x, u_o) = w(u_x, u_y) - w(pi(u_y), u_y)).
                displaced = cycle_edges[cv][edge.v]
                entry_member[edge.original] = edge.v
                candidate = _ArbEdge(cu, cv, edge.score - displaced.score, edge.original)
            else:
                candidate = _ArbEdge(cu, cv, edge.score, edge.original)
            current = best_pair.get((cu, cv))
            if current is None or candidate.score > current.score:
                best_pair[(cu, cv)] = candidate

        levels.append((node_of, cycle_edges, entry_member))
        nodes = contracted_nodes
        edges = list(best_pair.values())
        root = node_of.get(root, root)

    # --- Expand, innermost contraction first ------------------------------
    # Map each original edge chosen in the contraction back, and for each
    # cycle keep every internal edge except the one displaced by the
    # chosen entry edge.
    for node_of, cycle_edges, entry_member in reversed(levels):
        result: List[_ArbEdge] = []
        entered: Dict[Node, Node] = {}  # supernode -> member its in-edge enters
        for edge in chosen:
            result.append(edge)
            member = entry_member.get(edge.original)
            if member is not None and member in node_of:
                entered[node_of[member]] = member
        for supernode, members in cycle_edges.items():
            drop = entered.get(supernode)
            for member, cycle_edge in members.items():
                if member != drop:
                    result.append(cycle_edge)
        chosen = result
    return chosen


def maximum_spanning_branching(
    graph: SignedDiGraph,
    score: str = "log",
) -> SignedDiGraph:
    """Maximum-likelihood spanning branching (activation forest) of ``graph``.

    Every node with any incoming edge receives exactly one activation
    link; in-degree-0 nodes become roots. Ties and cycles are resolved by
    Chu-Liu/Edmonds so that the total transformed score of retained links
    is maximal (``score='log'`` maximises the likelihood product).

    Returns:
        A new :class:`SignedDiGraph` over the same nodes (states copied)
        whose edges are the chosen activation links with their original
        signs/weights.

    Raises:
        KeyError: if ``score`` names an unknown transform.
    """
    transform = SCORE_TRANSFORMS[score]
    nodes = graph.nodes()
    forest = SignedDiGraph(name=f"{graph.name or 'graph'}-branching")
    for node in nodes:
        forest.add_node(node, graph.state(node))
    if not nodes:
        return forest

    virtual_root: Node = ("__virtual_root__",)
    # Virtual edges mark forest roots. Their score must be low enough that
    # (a) a virtual edge never beats any chain of real alternatives and
    # (b) solutions with fewer virtual edges always win — but NOT so low
    # that float addition swallows real-score differences during cycle
    # contraction (a -1e15 constant loses everything below 0.125).
    # Contraction adjustments shift any score by at most n * _MAX_ABS_SCORE,
    # so this bound keeps virtual edges strictly dominated while preserving
    # full precision on real-score comparisons.
    virtual_score = -(2.0 * len(nodes) + 10.0) * _MAX_ABS_SCORE
    edges: List[_ArbEdge] = [
        _ArbEdge(virtual_root, v, virtual_score, (virtual_root, v)) for v in nodes
    ]
    for u, v, data in graph.iter_edges():
        if u != v:
            edges.append(_ArbEdge(u, v, transform(data.weight), (u, v)))

    chosen = _max_arborescence([virtual_root] + nodes, edges, virtual_root, 0)
    for edge in chosen:
        u, v = edge.original
        if u == virtual_root:
            continue  # v is a forest root
        data = graph.edge(u, v)
        forest.add_edge(u, v, int(data.sign), data.weight)
    return forest


def branching_roots(branching: SignedDiGraph) -> List[Node]:
    """Roots (in-degree-0 nodes) of a branching, in deterministic order."""
    return sorted((v for v in branching.nodes() if branching.in_degree(v) == 0), key=repr)


def split_branching_into_trees(branching: SignedDiGraph) -> List[SignedDiGraph]:
    """Split a branching (forest) into one subgraph per arborescence.

    Algorithm 4's last step: each returned cascade tree contains a root
    plus everything reachable from it, with node states and edge
    payloads preserved. Deterministic order (by root, repr-sorted).
    """
    trees: List[SignedDiGraph] = []
    for root in branching_roots(branching):
        members: List[Node] = []
        queue = deque([root])
        seen = {root}
        while queue:
            node = queue.popleft()
            members.append(node)
            for child in sorted(branching.successors(node), key=repr):
                if child not in seen:
                    seen.add(child)
                    queue.append(child)
        trees.append(branching.subgraph(members, name=f"cascade-tree-{root!r}"))
    return trees

