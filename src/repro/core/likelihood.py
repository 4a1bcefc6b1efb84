"""The MFC likelihood machinery of Sec. III-B.

Given a hypothesised initiator set ``I`` with states ``S`` and an
observed infected network ``G_I``, the paper scores the hypothesis by

    P(G_I | I, S) = Π_{u ∈ V_I}  P(u, s(u) | I, S)

where each node's infection probability combines all influence paths
from the initiators through a noisy-or:

    P(u, s(u)|I, S) = 1 - Π_{i∈I} Π_{p∈P(i,u)} (1 - Π_{(x,y)∈p} g(...))

and the per-link factor ``g`` encodes MFC's asymmetric boosting and the
sign-consistency requirement:

    g = min(1, α·w)  when s(x)·s(x,y) = s(y) and the link is positive,
    g = w            when s(x)·s(x,y) = s(y) and the link is negative,
    g = 0            when s(x)·s(x,y) ≠ s(y)   (sign-inconsistent).

Note on the paper text: the equation block assigns 0 to the
sign-inconsistent case while the surrounding prose says "assigned with
value one". The equation is the self-consistent reading (an inconsistent
link cannot have carried the observed activation, so paths through it
contribute nothing), and it is what we implement; ``inconsistent_value``
lets callers flip to the prose reading for sensitivity checks.

Path enumeration is exponential on general graphs; :func:`node_infection_probability`
bounds the number of enumerated paths and is exact on trees (where paths
are unique). The tree DP uses the specialised fast path in
:mod:`repro.kernel.tree_dp`.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence, Tuple

from repro.diffusion.mfc import boosted_probability
from repro.errors import InvalidModelParameterError
from repro.graphs.signed_digraph import SignedDiGraph
from repro.types import Node, NodeState, Sign


def g_link(
    source_state: NodeState,
    sign: Sign,
    target_state: NodeState,
    weight: float,
    alpha: float,
    inconsistent_value: float = 0.0,
) -> float:
    """The per-link factor ``g(s(x), s(x,y), s(y), w)`` of Sec. III-B."""
    if not (source_state.is_active and target_state.is_active):
        return inconsistent_value
    consistent = int(source_state) * int(sign) == int(target_state)
    if not consistent:
        return inconsistent_value
    return boosted_probability(weight, sign, alpha)


def path_probability(
    infected: SignedDiGraph,
    path: Sequence[Node],
    alpha: float,
    inconsistent_value: float = 0.0,
) -> float:
    """Product of ``g`` factors along a node path ``[x0, x1, ..., u]``."""
    probability = 1.0
    for x, y in zip(path, path[1:]):
        data = infected.edge(x, y)
        probability *= g_link(
            infected.state(x),
            data.sign,
            infected.state(y),
            data.weight,
            alpha,
            inconsistent_value,
        )
        if probability == 0.0:
            return 0.0
    return probability


def iter_simple_paths(
    graph: SignedDiGraph,
    source: Node,
    target: Node,
    max_paths: int,
    max_length: int,
) -> Iterator[List[Node]]:
    """Enumerate simple directed paths source -> target (bounded DFS)."""
    emitted = 0
    stack: List[Tuple[Node, List[Node]]] = [(source, [source])]
    while stack and emitted < max_paths:
        node, path = stack.pop()
        if node == target:
            emitted += 1
            yield path
            continue
        if len(path) > max_length:
            continue
        for nxt in sorted(graph.successors(node), key=repr):
            if nxt not in path:
                stack.append((nxt, path + [nxt]))


def node_infection_probability(
    infected: SignedDiGraph,
    node: Node,
    initiators: Dict[Node, NodeState],
    alpha: float,
    inconsistent_value: float = 0.0,
    max_paths: int = 10_000,
    max_length: int = 64,
) -> float:
    """``P(u, s(u) | I, S)`` via (bounded) path enumeration.

    Exact on trees and on small general graphs; on larger graphs the
    enumeration is truncated at ``max_paths`` paths per initiator, giving
    a lower bound on the true noisy-or probability.

    Initiator special case (Sec. III-D): if ``node`` is itself an
    initiator, the probability is 1 when its hypothesised state matches
    the observed state and 0 otherwise.
    """
    if alpha < 1.0:
        raise InvalidModelParameterError(f"alpha must be >= 1, got {alpha}")
    observed = infected.state(node)
    if node in initiators:
        return 1.0 if NodeState(initiators[node]) == observed else 0.0
    failure = 1.0
    for initiator in sorted(initiators, key=repr):
        if not infected.has_node(initiator):
            continue
        for path in iter_simple_paths(infected, initiator, node, max_paths, max_length):
            p = path_probability(infected, path, alpha, inconsistent_value)
            failure *= 1.0 - p
            if failure == 0.0:
                return 1.0
    return 1.0 - failure


def network_likelihood(
    infected: SignedDiGraph,
    initiators: Dict[Node, NodeState],
    alpha: float,
    inconsistent_value: float = 0.0,
    max_paths: int = 10_000,
) -> float:
    """``P(G_I | I, S)``: product of per-node infection probabilities."""
    likelihood = 1.0
    for node in sorted(infected.nodes(), key=repr):
        likelihood *= node_infection_probability(
            infected, node, initiators, alpha, inconsistent_value, max_paths
        )
        if likelihood == 0.0:
            return 0.0
    return likelihood


def additive_score(
    infected: SignedDiGraph,
    initiators: Dict[Node, NodeState],
    alpha: float,
    inconsistent_value: float = 0.0,
    max_paths: int = 10_000,
) -> float:
    """Sum of per-node infection probabilities.

    This is the additive surrogate the paper's ``OPT`` dynamic program
    accumulates (Sec. III-D sums ``P(u, s(u)|I, S)`` terms rather than
    multiplying them); exposed here so brute-force solvers can score
    hypotheses exactly the way the DP does.
    """
    return sum(
        node_infection_probability(
            infected, node, initiators, alpha, inconsistent_value, max_paths
        )
        for node in infected.nodes()
    )
