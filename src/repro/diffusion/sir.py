"""Susceptible-Infectious-Recovered (SIR) diffusion (Hethcote, 2000).

The epidemic baseline referenced in Sec. III-A and underlying the
Shah-Zaman rumor-centrality line of work. Nodes cycle
susceptible -> infectious -> recovered; infectious nodes attempt each
out-link once per round with probability ``infection_scale · w`` and
recover each round with probability ``recovery_probability``. Recovered
nodes keep their opinion state but stop transmitting.
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

from repro.diffusion.base import (
    ActivationEvent,
    DiffusionModel,
    DiffusionResult,
    check_round_cap,
    sorted_nodes,
)
from repro.errors import InvalidModelParameterError
from repro.graphs.signed_digraph import SignedDiGraph
from repro.types import Node, NodeState
from repro.utils.rng import RandomSource
from repro.utils.validation import check_probability


class SIRModel(DiffusionModel):
    """Discrete-time SIR over the diffusion network.

    Args:
        infection_scale: multiplier on edge weights for the per-round
            transmission probability (clamped to 1).
        recovery_probability: per-round chance an infectious node recovers.
        max_rounds: hard stop for near-zero recovery probabilities.
    """

    name = "sir"

    def __init__(
        self,
        infection_scale: float = 1.0,
        recovery_probability: float = 0.3,
        max_rounds: int = 10_000,
    ) -> None:
        if infection_scale < 0:
            raise InvalidModelParameterError(
                f"infection_scale must be >= 0, got {infection_scale}"
            )
        try:
            self.recovery_probability = check_probability(
                recovery_probability, "recovery_probability"
            )
        except ValueError as exc:
            raise InvalidModelParameterError(str(exc)) from None
        max_rounds = check_round_cap(max_rounds, "max_rounds", 1)
        try:
            self.infection_scale = float(infection_scale)
        except OverflowError:  # an int such as 10**400, from JSON
            raise InvalidModelParameterError(
                f"infection_scale must fit in a float, got {infection_scale!r}"
            ) from None
        self.max_rounds = max_rounds

    def run(
        self,
        diffusion: SignedDiGraph,
        seeds: Dict[Node, NodeState],
        rng: RandomSource = None,
    ) -> DiffusionResult:
        validated, random, states, events = self._prepare(diffusion, seeds, rng)
        infectious: Set[Node] = set(validated)
        recovered: Set[Node] = set()
        attempted: Set[Tuple[Node, Node]] = set()
        round_index = 0

        while infectious and round_index < self.max_rounds:
            round_index += 1
            newly_infected: Set[Node] = set()
            for u in sorted_nodes(infectious):
                s_u = states[u]
                for v in sorted_nodes(diffusion.successors(u)):
                    if (u, v) in attempted:
                        continue
                    if states.get(v, NodeState.INACTIVE).is_active or v in recovered:
                        continue
                    attempted.add((u, v))
                    probability = min(1.0, self.infection_scale * diffusion.weight(u, v))
                    if random.random() < probability:
                        new_state = s_u.times(diffusion.sign(u, v))
                        states[v] = new_state
                        events.append(
                            ActivationEvent(
                                round=round_index, source=u, target=v, state=new_state
                            )
                        )
                        newly_infected.add(v)
            # Recovery draws happen after transmission, in sorted order.
            for u in sorted_nodes(infectious):
                if random.random() < self.recovery_probability:
                    recovered.add(u)
            infectious = (infectious - recovered) | newly_infected

        return DiffusionResult(
            seeds=validated, final_states=states, events=events, rounds=round_index
        )
