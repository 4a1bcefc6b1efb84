"""Initiator (seed) selection for simulated infections.

The paper's experimental setup (Sec. IV-B3): ``N`` rumor initiators are
selected uniformly at random and assigned initial states according to the
positive ratio ``θ = #positive / N`` (e.g. ``N = 1000``, ``θ = 0.5``).
"""

from __future__ import annotations

from typing import Dict

from repro.errors import InvalidSeedError
from repro.graphs.signed_digraph import SignedDiGraph
from repro.types import Node, NodeState
from repro.utils.rng import RandomSource, spawn_rng
from repro.utils.validation import check_probability


def plant_random_initiators(
    diffusion: SignedDiGraph,
    count: int,
    positive_ratio: float = 0.5,
    rng: RandomSource = None,
) -> Dict[Node, NodeState]:
    """Select ``count`` random initiators with the paper's θ state split.

    Exactly ``round(θ·count)`` initiators receive state ``+1`` and the
    rest ``-1``, matching the deterministic split described in Sec. IV-B3.

    Args:
        diffusion: the network to draw initiators from.
        count: number of initiators N.
        positive_ratio: θ, the fraction planted with state +1.
        rng: seed or generator.

    Raises:
        InvalidSeedError: when count exceeds the network size or is < 1.
    """
    check_probability(positive_ratio, "positive_ratio")
    nodes = diffusion.nodes()
    if count < 1:
        raise InvalidSeedError(f"initiator count must be >= 1, got {count}")
    if count > len(nodes):
        raise InvalidSeedError(
            f"cannot plant {count} initiators in a network of {len(nodes)} nodes"
        )
    random = spawn_rng(rng, "plant-initiators")
    chosen = random.sample(sorted(nodes, key=repr), count)
    num_positive = int(round(positive_ratio * count))
    seeds: Dict[Node, NodeState] = {}
    for index, node in enumerate(chosen):
        seeds[node] = NodeState.POSITIVE if index < num_positive else NodeState.NEGATIVE
    return seeds

