"""Graph-to-graph transforms used throughout the pipeline.

The most important one is :func:`to_diffusion_network`, realising the
paper's Definition 2: the **weighted signed diffusion network** is the
social network with every edge reversed, because information flows from
B to A when A trusts (follows) B. Signs and weights carry over unchanged.
"""

from __future__ import annotations

from repro.graphs.signed_digraph import SignedDiGraph
from repro.types import Sign


def to_diffusion_network(social: SignedDiGraph) -> SignedDiGraph:
    """Build the diffusion network ``G_D`` from a social network ``G``.

    Per Definition 2: ``V_D = V`` and ``(v, u) in E_D`` iff ``(u, v) in E``,
    with ``s_D(v, u) = s(u, v)`` and ``w_D(v, u) = w(u, v)``.

    Args:
        social: the trust-centric social network (edge ``u -> v`` means
            "u trusts/follows v").

    Returns:
        A new graph whose edge ``v -> u`` means "information can flow
        from v to u".
    """
    return social.reverse(name=f"{social.name or 'social'}-diffusion")


def positive_subgraph(graph: SignedDiGraph) -> SignedDiGraph:
    """Keep all nodes but only the positive (trust) edges.

    This is the network the RID-Positive baseline operates on (Sec. IV-B1):
    negative links are discarded entirely.
    """
    sub = SignedDiGraph(name=f"{graph.name or 'graph'}-positive")
    for node in graph.nodes():
        sub.add_node(node, graph.state(node))
    for u, v, data in graph.iter_edges():
        if data.sign is Sign.POSITIVE:
            sub.add_edge(u, v, int(data.sign), data.weight)
    return sub


def prune_inconsistent_links(infected: SignedDiGraph) -> SignedDiGraph:
    """Remove sign-inconsistent diffusion links (Definition 5 pruning).

    A link ``(u, v)`` with ``s(u)·s(u,v) ≠ s(v)`` cannot be the final
    activation link of ``v`` in the observed snapshot (the last success
    on ``v`` set ``s(v) = s(u)·s(u,v)``), so the RID pipeline prunes such
    "non-existing activation links" before detecting connected components
    and extracting cascade trees (Sec. III-E1 operates on "the pruned
    infected signed network"). Links touching a non-active node are
    pruned as well.
    """
    pruned = SignedDiGraph(name=f"{infected.name or 'infected'}-pruned")
    for node in infected.nodes():
        pruned.add_node(node, infected.state(node))
    for u, v, data in infected.iter_edges():
        s_u, s_v = infected.state(u), infected.state(v)
        if not (s_u.is_active and s_v.is_active):
            continue
        if int(s_u) * int(data.sign) == int(s_v):
            pruned.add_edge(u, v, int(data.sign), data.weight)
    return pruned

