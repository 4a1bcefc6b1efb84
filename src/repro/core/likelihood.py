"""The per-link factor ``g`` of the MFC likelihood (Sec. III-B).

The paper scores a hypothesised initiator set ``I`` with states ``S``
by a noisy-or over every influence path into each infected node, and
each path by the product of its links' factors

    g = min(1, α·w)  when s(x)·s(x,y) = s(y) and the link is positive,
    g = w            when s(x)·s(x,y) = s(y) and the link is negative,
    g = 0            when s(x)·s(x,y) ≠ s(y)   (sign-inconsistent).

Note on the paper text: the equation block assigns 0 to the
sign-inconsistent case while the surrounding prose says "assigned with
value one". The equation is the self-consistent reading (an inconsistent
link cannot have carried the observed activation, so paths through it
contribute nothing), and it is what we implement; ``inconsistent_value``
lets callers flip to the prose reading for sensitivity checks.

RID needs only ``g``: :mod:`repro.core.binarize` stores it as each
binary-tree slot's incoming-edge factor, and the tree DP in
:mod:`repro.kernel.tree_dp` keeps the nearest initiator ancestor's path
product. The full noisy-or likelihood, exponential on general graphs,
is the exhaustive solvers' reference in ``tests/oracles/exact.py``.
"""

from __future__ import annotations

from repro.diffusion.mfc import boosted_probability
from repro.types import NodeState, Sign


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

