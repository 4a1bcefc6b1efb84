"""Exhaustive ISOMIT solvers and the noisy-or likelihood they score with.

The ISOMIT objective (Sec. II-B) is

    I*, S* = argmax_{I, S}  P(G_I | I, S)

which RID approximates through tree extraction and the β-penalised DP.
The exact problem is NP-hard (Lemma 3.1), so these solvers enumerate
initiator subsets and only suit the toy snapshots the tests draw. They
certify RID there: its tree-restricted optimum can never beat the exact
one. Two objectives are exposed:

* :func:`exact_isomit_likelihood` — the paper's product likelihood
  ``P(G_I | I, S)`` computed by exact path enumeration;
* :func:`exact_isomit_additive` — the additive surrogate the DP
  optimises (sum of per-node explanation probabilities) with the same
  β penalty, making it directly comparable to RID's objective.

Both are exponential in ``|V_I|``; guard rails refuse instances beyond
``max_nodes``.

The likelihood of Sec. III-B scores each node by a noisy-or over every
influence path from the initiators:

    P(G_I | I, S) = Π_{u ∈ V_I}  P(u, s(u) | I, S)
    P(u, s(u)|I, S) = 1 - Π_{i∈I} Π_{p∈P(i,u)} (1 - Π_{(x,y)∈p} g(...))

with the per-link factor ``g`` of :func:`repro.core.likelihood.g_link`.
Path enumeration is exponential on general graphs;
:func:`node_infection_probability` bounds the number of enumerated
paths and is exact on trees (where paths are unique). Production RID
never evaluates this: the tree DP in :mod:`repro.kernel.tree_dp` keeps
only the nearest initiator ancestor's path term.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.likelihood import g_link
from repro.errors import DetectionError, EmptyInfectionError, InvalidModelParameterError
from repro.graphs.signed_digraph import SignedDiGraph
from repro.types import Node, NodeState


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
    multiplying them), so :func:`exact_isomit_additive` scores
    hypotheses the way the DP does.
    """
    return sum(
        node_infection_probability(
            infected, node, initiators, alpha, inconsistent_value, max_paths
        )
        for node in infected.nodes()
    )


@dataclass
class ExactSolution:
    """Optimal initiator hypothesis for one small ISOMIT instance.

    Attributes:
        initiators: optimal initiator identities with their states.
        objective: objective value achieved (likelihood or penalised
            additive score, depending on the solver).
        evaluated: number of hypotheses scored.
    """

    initiators: Dict[Node, NodeState]
    objective: float
    evaluated: int


def _check_instance(infected: SignedDiGraph, max_nodes: int) -> List[Node]:
    if infected.number_of_nodes() == 0:
        raise EmptyInfectionError("infected network has no nodes")
    nodes = sorted(infected.nodes(), key=repr)
    if len(nodes) > max_nodes:
        raise DetectionError(
            f"exact solver limited to {max_nodes} nodes, got {len(nodes)}"
        )
    for node in nodes:
        if not infected.state(node).is_active:
            raise DetectionError(
                f"exact solver expects an infected snapshot; {node!r} is not active"
            )
    return nodes


def _candidate_hypotheses(
    nodes: List[Node],
    infected: SignedDiGraph,
    max_initiators: Optional[int],
    observed_states_only: bool,
) -> Iterable[Dict[Node, NodeState]]:
    """All initiator subsets (size 1..max) with state assignments."""
    limit = len(nodes) if max_initiators is None else min(max_initiators, len(nodes))
    for size in range(1, limit + 1):
        for subset in itertools.combinations(nodes, size):
            if observed_states_only:
                yield {node: infected.state(node) for node in subset}
            else:
                for states in itertools.product(
                    (NodeState.POSITIVE, NodeState.NEGATIVE), repeat=size
                ):
                    yield dict(zip(subset, states))


def exact_isomit_likelihood(
    infected: SignedDiGraph,
    alpha: float = 3.0,
    max_initiators: Optional[int] = None,
    max_nodes: int = 12,
    observed_states_only: bool = False,
) -> ExactSolution:
    """Maximise the paper's product likelihood by exhaustive search.

    Ties are broken toward fewer initiators, then lexicographically, so
    the result is deterministic.

    Args:
        infected: the infected snapshot ``G_I``.
        alpha: MFC boosting coefficient for the likelihood.
        max_initiators: cap on ``|I|`` (None = up to ``|V_I|``).
        max_nodes: refuse instances larger than this.
        observed_states_only: restrict hypothesised initiator states to
            the observed snapshot states (2^|I| times faster; exact when
            no flips occurred).

    Raises:
        DetectionError: on oversized or non-infected inputs.
    """
    nodes = _check_instance(infected, max_nodes)
    best: Optional[Dict[Node, NodeState]] = None
    best_key: Optional[Tuple[float, int]] = None
    evaluated = 0
    for hypothesis in _candidate_hypotheses(
        nodes, infected, max_initiators, observed_states_only
    ):
        evaluated += 1
        likelihood = network_likelihood(infected, hypothesis, alpha)
        key = (likelihood, -len(hypothesis))
        if best_key is None or key > best_key:
            best_key, best = key, hypothesis
    assert best is not None and best_key is not None
    return ExactSolution(initiators=best, objective=best_key[0], evaluated=evaluated)


def exact_isomit_additive(
    infected: SignedDiGraph,
    alpha: float = 3.0,
    beta: float = 0.1,
    max_initiators: Optional[int] = None,
    max_nodes: int = 12,
) -> ExactSolution:
    """Maximise RID's penalised additive objective by exhaustive search.

    Objective: ``Σ_u P(u, s(u)|I, S) − (|I| − 1)·β`` with the exact
    noisy-or per-node probabilities. RID charges ``(k_t − 1)·β`` per
    cascade tree instead, ``(|I| − trees)·β`` in all, so a comparison
    with RID's objective on a multi-tree snapshot must add
    ``(trees − 1)·β`` back. Initiator states are fixed to the observed
    states (the dominant choice, see ``repro.kernel.tree_dp``).

    Raises:
        DetectionError: on oversized or non-infected inputs.
    """
    nodes = _check_instance(infected, max_nodes)
    best: Optional[Dict[Node, NodeState]] = None
    best_objective = float("-inf")
    evaluated = 0
    for hypothesis in _candidate_hypotheses(
        nodes, infected, max_initiators, observed_states_only=True
    ):
        evaluated += 1
        objective = additive_score(infected, hypothesis, alpha) - (
            len(hypothesis) - 1
        ) * beta
        if objective > best_objective:
            best_objective, best = objective, hypothesis
    assert best is not None
    return ExactSolution(
        initiators=best, objective=best_objective, evaluated=evaluated
    )
