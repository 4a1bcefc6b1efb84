"""Graph down-sampling: principled miniatures of large signed networks.

The experiments run on profiled *generators*, but a user holding the
real SNAP files (131k/77k nodes) will want laptop-scale subgraphs whose
structure resembles the original. :func:`forest_fire_sample` is the
Leskovec-Faloutsos forest fire, the method of record for preserving
heavy tails and community structure while shrinking a graph; it keeps
edge signs/weights and node states, and is deterministic under a seed.
"""

from __future__ import annotations

from collections import deque
from typing import Set

from repro.errors import ConfigError
from repro.graphs.signed_digraph import SignedDiGraph
from repro.types import Node
from repro.utils.rng import RandomSource, spawn_rng


def forest_fire_sample(
    graph: SignedDiGraph,
    target_nodes: int,
    forward_probability: float = 0.7,
    backward_probability: float = 0.3,
    rng: RandomSource = None,
) -> SignedDiGraph:
    """Leskovec-Faloutsos forest-fire sampling.

    Repeatedly ignites a random unburned node and burns outward: from
    each burning node a geometrically distributed number of out-
    neighbours (mean ``p/(1-p)``) and in-neighbours catch fire. Restarts
    until ``target_nodes`` are burned.

    Raises:
        ConfigError: on invalid probabilities or target.
    """
    if target_nodes < 1:
        raise ConfigError(f"target_nodes must be >= 1, got {target_nodes}")
    if not 0.0 <= forward_probability < 1.0:
        raise ConfigError(
            f"forward_probability must be in [0, 1), got {forward_probability}"
        )
    if not 0.0 <= backward_probability < 1.0:
        raise ConfigError(
            f"backward_probability must be in [0, 1), got {backward_probability}"
        )
    random = spawn_rng(rng, "forest-fire")
    nodes = sorted(graph.nodes(), key=repr)
    if not nodes:
        return SignedDiGraph(name=f"{graph.name or 'graph'}-forestfire")
    target = min(target_nodes, len(nodes))
    burned: Set[Node] = set()

    def geometric_burst(p: float) -> int:
        count = 0
        while p > 0.0 and random.random() < p:
            count += 1
        return count

    while len(burned) < target:
        unburned = [n for n in nodes if n not in burned]
        frontier = deque([unburned[random.randrange(len(unburned))]])
        while frontier and len(burned) < target:
            node = frontier.popleft()
            if node in burned:
                continue
            burned.add(node)
            forward = [n for n in sorted(graph.successors(node), key=repr) if n not in burned]
            backward = [n for n in sorted(graph.predecessors(node), key=repr) if n not in burned]
            random.shuffle(forward)
            random.shuffle(backward)
            frontier.extend(forward[: geometric_burst(forward_probability)])
            frontier.extend(backward[: geometric_burst(backward_probability)])
    return graph.subgraph(burned, name=f"{graph.name or 'graph'}-forestfire")
