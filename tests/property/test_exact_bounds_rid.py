"""The exhaustive ISOMIT optimum bounds RID's objective on small snapshots.

RID scores each cascade tree with the DP's nearest-initiator-ancestor
sum and charges ``(k_t − 1)·β`` per tree, which is ``(|I| − trees)·β``
in all. The exact additive solver (``tests/oracles/exact.py``) scores
every node by the noisy-or over all influence paths and charges
``(|I| − 1)·β`` once. Rescored that way, RID's own hypothesis is worth
at least ``rid.objective − (trees − 1)·β``, and the exact optimum is
worth at least as much. The slack is the nearest-ancestor collapse
(DESIGN.md §6.4) plus the links RID's forest leaves out.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rid import RID, RIDConfig
from repro.graphs.signed_digraph import SignedDiGraph
from repro.types import NodeState
from tests.oracles.exact import exact_isomit_additive
from tests.property.tree_strategies import saturated_trees

_STATES = (NodeState.POSITIVE, NodeState.NEGATIVE)

betas = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@st.composite
def infected_dags(draw, max_size: int = 10):
    """``(dag, alpha)``: an all-active snapshot whose links run from lower
    to higher ids; a drawn share of them is sign-consistent."""
    size = draw(st.integers(min_value=1, max_value=max_size))
    density = draw(st.sampled_from((0.2, 0.4, 0.7)))
    consistent = draw(st.sampled_from((0.5, 0.8, 1.0)))
    alpha = draw(st.floats(min_value=1.0, max_value=4.0, allow_nan=False))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10_000)))

    dag = SignedDiGraph(name=f"dag-{size}")
    states = [rng.choice(_STATES) for _ in range(size)]
    for node, state in enumerate(states):
        dag.add_node(node, state)
    for v in range(1, size):
        for u in range(v):
            if rng.random() < density:
                if rng.random() < consistent:
                    sign = int(states[u]) * int(states[v])
                else:
                    sign = rng.choice((1, -1))
                dag.add_edge(u, v, sign, rng.uniform(0.05, 1.0))
    return dag, alpha


def assert_exact_bounds_rid(snapshot: SignedDiGraph, alpha: float, beta: float) -> None:
    exact = exact_isomit_additive(snapshot, alpha=alpha, beta=beta)
    config = RIDConfig(alpha=alpha, beta=beta)
    rid = RID(config).detect(snapshot)
    assert exact.objective >= rid.objective - (len(rid.trees) - 1) * beta - 1e-9


class TestExactBoundsRID:
    @given(saturated_trees(max_size=10), betas)
    @settings(max_examples=60, deadline=None)
    def test_on_infected_trees(self, drawn, beta):
        tree, alpha = drawn
        assert_exact_bounds_rid(tree, alpha, beta)

    @given(infected_dags(), betas)
    @settings(max_examples=60, deadline=None)
    def test_on_small_dags(self, drawn, beta):
        dag, alpha = drawn
        assert_exact_bounds_rid(dag, alpha, beta)
