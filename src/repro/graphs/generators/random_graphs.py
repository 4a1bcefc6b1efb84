"""Classic random-graph families, extended with edge signs.

All generators return :class:`~repro.graphs.signed_digraph.SignedDiGraph`
instances with integer nodes ``0..n-1``, a configurable positive-edge
probability, and weights drawn uniformly from a configurable range
(weights are usually overwritten later by Jaccard weighting, matching
the paper's experimental setup).
"""

from __future__ import annotations

from typing import Tuple

from repro.errors import ConfigError
from repro.graphs.signed_digraph import SignedDiGraph
from repro.utils.rng import RandomSource, spawn_rng
from repro.utils.validation import check_probability


def _draw_sign(rng, positive_probability: float) -> int:
    return 1 if rng.random() < positive_probability else -1


def _draw_weight(rng, weight_range: Tuple[float, float]) -> float:
    lo, hi = weight_range
    return lo + (hi - lo) * rng.random()


def _check_common(n: int, positive_probability: float, weight_range) -> None:
    if n < 0:
        raise ConfigError(f"number of nodes must be >= 0, got {n}")
    check_probability(positive_probability, "positive_probability")
    lo, hi = weight_range
    if not (0.0 <= lo <= hi <= 1.0):
        raise ConfigError(f"weight_range must satisfy 0 <= lo <= hi <= 1, got {weight_range}")


def signed_erdos_renyi(
    n: int,
    edge_probability: float,
    positive_probability: float = 0.8,
    weight_range: Tuple[float, float] = (0.05, 1.0),
    rng: RandomSource = None,
) -> SignedDiGraph:
    """Directed signed G(n, p): each ordered pair gets an edge w.p. ``p``.

    Args:
        n: node count.
        edge_probability: per-ordered-pair edge probability.
        positive_probability: probability an edge is a trust (+1) link.
        weight_range: uniform range for initial edge weights.
        rng: seed or generator.
    """
    _check_common(n, positive_probability, weight_range)
    check_probability(edge_probability, "edge_probability")
    random = spawn_rng(rng, "erdos-renyi")
    graph = SignedDiGraph(name=f"signed-er-{n}")
    graph.add_nodes(range(n))
    for u in range(n):
        for v in range(n):
            if u != v and random.random() < edge_probability:
                graph.add_edge(
                    u,
                    v,
                    _draw_sign(random, positive_probability),
                    _draw_weight(random, weight_range),
                )
    return graph


def signed_preferential_attachment(
    n: int,
    out_degree: int = 3,
    positive_probability: float = 0.8,
    weight_range: Tuple[float, float] = (0.05, 1.0),
    rng: RandomSource = None,
) -> SignedDiGraph:
    """Directed scale-free network via preferential attachment.

    Each arriving node points ``out_degree`` edges at existing nodes chosen
    proportionally to (1 + in-degree), producing a heavy-tailed in-degree
    distribution like real trust networks.
    """
    _check_common(n, positive_probability, weight_range)
    if out_degree < 1:
        raise ConfigError(f"out_degree must be >= 1, got {out_degree}")
    random = spawn_rng(rng, "preferential-attachment")
    graph = SignedDiGraph(name=f"signed-ba-{n}")
    graph.add_nodes(range(n))
    # repeated-nodes trick: sampling from this list is preferential.
    attachment_pool = list(range(min(n, out_degree + 1)))
    for u in range(n):
        if u == 0:
            continue
        targets = set()
        attempts = 0
        wanted = min(out_degree, u)
        while len(targets) < wanted and attempts < 20 * wanted:
            attempts += 1
            if random.random() < 0.15 or not attachment_pool:
                candidate = random.randrange(u)  # uniform escape hatch
            else:
                candidate = attachment_pool[random.randrange(len(attachment_pool))]
            if candidate != u and candidate < u:
                targets.add(candidate)
        for v in targets:
            graph.add_edge(
                u,
                v,
                _draw_sign(random, positive_probability),
                _draw_weight(random, weight_range),
            )
            attachment_pool.append(v)
            attachment_pool.append(u)
    return graph


def signed_watts_strogatz(
    n: int,
    k: int = 4,
    rewire_probability: float = 0.1,
    positive_probability: float = 0.8,
    weight_range: Tuple[float, float] = (0.05, 1.0),
    rng: RandomSource = None,
) -> SignedDiGraph:
    """Directed signed small-world ring lattice with rewiring.

    Each node points at its ``k`` clockwise neighbours; each edge is
    rewired to a uniform random target with probability
    ``rewire_probability``.
    """
    _check_common(n, positive_probability, weight_range)
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    check_probability(rewire_probability, "rewire_probability")
    random = spawn_rng(rng, "watts-strogatz")
    graph = SignedDiGraph(name=f"signed-ws-{n}")
    graph.add_nodes(range(n))
    if n <= 1:
        return graph
    for u in range(n):
        for offset in range(1, min(k, n - 1) + 1):
            v = (u + offset) % n
            if random.random() < rewire_probability:
                v = random.randrange(n)
                tries = 0
                while (v == u or graph.has_edge(u, v)) and tries < 10:
                    v = random.randrange(n)
                    tries += 1
                if v == u or graph.has_edge(u, v):
                    continue
            if not graph.has_edge(u, v) and u != v:
                graph.add_edge(
                    u,
                    v,
                    _draw_sign(random, positive_probability),
                    _draw_weight(random, weight_range),
                )
    return graph

