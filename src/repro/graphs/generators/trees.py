"""Tree-shaped signed graphs.

The binarisation step (Sec. III-E3, Fig. 3) turns general cascade trees
into the binary trees the k-ISOMIT-BT dynamic program (Sec. III-D)
operates on. These generators produce general trees, paths and stars —
directed root-to-leaf (diffusion orientation) — for tests, examples and
the DP-scaling ablation.
"""

from __future__ import annotations

from typing import Tuple

from repro.errors import ConfigError
from repro.graphs.signed_digraph import SignedDiGraph
from repro.utils.rng import RandomSource, spawn_rng


def _sign_and_weight(rng, positive_probability: float, weight_range) -> Tuple[int, float]:
    lo, hi = weight_range
    sign = 1 if rng.random() < positive_probability else -1
    return sign, lo + (hi - lo) * rng.random()


def random_general_tree(
    n: int,
    max_children: int = 5,
    positive_probability: float = 0.8,
    weight_range: Tuple[float, float] = (0.1, 1.0),
    rng: RandomSource = None,
) -> SignedDiGraph:
    """A random rooted tree where nodes may have up to ``max_children``.

    Used to exercise the general-tree -> binary-tree transform.
    """
    if n < 0:
        raise ConfigError(f"n must be >= 0, got {n}")
    if max_children < 1:
        raise ConfigError(f"max_children must be >= 1, got {max_children}")
    random = spawn_rng(rng, "general-tree")
    tree = SignedDiGraph(name=f"general-tree-{n}")
    if n == 0:
        return tree
    tree.add_node(0)
    child_count = {0: 0}
    for node in range(1, n):
        candidates = [p for p, c in child_count.items() if c < max_children]
        parent = candidates[random.randrange(len(candidates))]
        sign, weight = _sign_and_weight(random, positive_probability, weight_range)
        tree.add_edge(parent, node, sign, weight)
        child_count[parent] += 1
        child_count[node] = 0
    return tree


def path_graph(
    n: int,
    sign: int = 1,
    weight: float = 1.0,
) -> SignedDiGraph:
    """A directed path ``0 -> 1 -> ... -> n-1`` with uniform sign/weight."""
    graph = SignedDiGraph(name=f"path-{n}")
    graph.add_nodes(range(n))
    for u in range(n - 1):
        graph.add_edge(u, u + 1, sign, weight)
    return graph


def star_graph(
    n_leaves: int,
    sign: int = 1,
    weight: float = 1.0,
    outward: bool = True,
) -> SignedDiGraph:
    """A star with hub node 0 and ``n_leaves`` leaves ``1..n``.

    ``outward=True`` points edges hub -> leaf (diffusion orientation).
    """
    graph = SignedDiGraph(name=f"star-{n_leaves}")
    graph.add_node(0)
    for leaf in range(1, n_leaves + 1):
        if outward:
            graph.add_edge(0, leaf, sign, weight)
        else:
            graph.add_edge(leaf, 0, sign, weight)
    return graph


def is_arborescence(graph: SignedDiGraph) -> bool:
    """True when ``graph`` is a rooted out-tree (every non-root has
    in-degree exactly 1, the root in-degree 0, and the graph is connected
    and acyclic).
    """
    nodes = graph.nodes()
    if not nodes:
        return True
    roots = [v for v in nodes if graph.in_degree(v) == 0]
    if len(roots) != 1:
        return False
    if any(graph.in_degree(v) > 1 for v in nodes):
        return False
    # Reachability from the root must cover all nodes (implies acyclicity
    # together with the in-degree conditions).
    seen = {roots[0]}
    stack = [roots[0]]
    while stack:
        u = stack.pop()
        for v in graph.successors(u):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == len(nodes)
