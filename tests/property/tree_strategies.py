"""Hypothesis strategies for cascade trees with saturated links.

The TreeDP kernel indexes its ancestor axis by *classes*: ancestors
joined only by links whose ``g = min(1, α·w)`` is exactly ``1.0`` share
one column. Plain random trees rarely saturate, so these strategies
draw a chosen share of positive, state-consistent links with
``w >= 1/α`` and build the shapes that stress the class layout: deep
saturated chains, and fan-outs wide enough to force dummy slots.
"""

import random

from hypothesis import strategies as st

from repro.graphs.signed_digraph import SignedDiGraph
from repro.types import NodeState

_STATES = (NodeState.POSITIVE, NodeState.NEGATIVE)


def _parents(shape: str, size: int, rng: random.Random) -> list:
    """``parents[i]`` for nodes ``1..size-1`` (node 0 is the root)."""
    if shape == "chain":
        # One deep path; every fourth node or so hangs off a random
        # earlier node instead, so some chain nodes fan out.
        return [
            rng.randrange(i) if rng.random() < 0.25 else i - 1 for i in range(1, size)
        ]
    if shape == "fanout":
        # A short spine whose nodes take 3-6 children each: dummies.
        hubs = [0]
        out = []
        for i in range(1, size):
            hub = hubs[rng.randrange(len(hubs))]
            out.append(hub)
            if rng.random() < 0.2:
                hubs.append(i)
        return out
    # "random": bounded fan-out anywhere.
    max_children = rng.randint(2, 5)
    children = {0: 0}
    out = []
    for i in range(1, size):
        open_ = [p for p, c in children.items() if c < max_children]
        parent = open_[rng.randrange(len(open_))]
        out.append(parent)
        children[parent] += 1
        children[i] = 0
    return out


@st.composite
def saturated_trees(draw, max_size: int = 40):
    """``(tree, alpha)`` with a drawn share of exactly-saturated links.

    A saturated link is positive, joins two nodes in the same state, and
    has ``w >= 1/α`` so ``g == 1.0``; the rest carry random signs,
    weights and child states (consistent-unsaturated or inconsistent).
    """
    size = draw(st.integers(min_value=1, max_value=max_size))
    shape = draw(st.sampled_from(("random", "chain", "fanout")))
    share = draw(st.sampled_from((0.0, 0.5, 0.8, 1.0)))
    alpha = draw(st.floats(min_value=1.0, max_value=4.0, allow_nan=False))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = random.Random(seed)

    tree = SignedDiGraph(name=f"saturated-{shape}-{size}")
    states = [rng.choice(_STATES)]
    tree.add_node(0, states[0])
    for child, parent in enumerate(_parents(shape, size, rng), start=1):
        if rng.random() < share:
            state = states[parent]
            sign = 1
            weight = rng.choice((1.0, 1.0 / alpha, rng.uniform(1.0 / alpha, 1.0)))
        else:
            state = rng.choice(_STATES)
            sign = rng.choice((1, -1))
            weight = rng.uniform(0.05, 1.0)
        states.append(state)
        tree.add_node(child, state)
        tree.add_edge(parent, child, sign, weight)
    return tree, alpha
