"""Exact ISOMIT solvers for small instances.

The ISOMIT objective (Sec. II-B) is

    I*, S* = argmax_{I, S}  P(G_I | I, S)

which RID approximates through tree extraction and the β-penalised DP.
For small infected networks the optimum can be computed outright by
enumerating initiator subsets; these solvers exist to (a) certify the
heuristic pipeline in tests and (b) quantify its optimality gap in
ablations. Two objectives are exposed:

* :func:`exact_isomit_likelihood` — the paper's product likelihood
  ``P(G_I | I, S)`` computed by exact path enumeration;
* :func:`exact_isomit_additive` — the additive surrogate the DP
  optimises (sum of per-node explanation probabilities) with the same
  β penalty, making it directly comparable to RID's objective.

Both are exponential in ``|V_I|``; guard rails refuse instances beyond
``max_nodes``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.likelihood import additive_score, network_likelihood
from repro.errors import DetectionError, EmptyInfectionError
from repro.graphs.signed_digraph import SignedDiGraph
from repro.types import Node, NodeState


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
    noisy-or per-node probabilities (so this upper-bounds what the
    tree-restricted DP can reach on the same snapshot). Initiator states
    are fixed to the observed states (the dominant choice, see
    ``repro.kernel.tree_dp``).

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
