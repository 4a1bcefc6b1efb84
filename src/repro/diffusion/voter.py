"""Signed Voter model (Li, Chen, Wang, Zhang — WSDM 2013).

The diffusion model used by the signed-network influence-maximization
work the paper contrasts itself with (Table I). At every round each
*undecided or decided* node adopts the (sign-adjusted) opinion of one
uniformly random in-neighbour: across a positive link it copies the
neighbour's state, across a negative link it adopts the negation. Unlike
cascade models, voter dynamics never quiesce on their own, so the run
length is a parameter.
"""

from __future__ import annotations

from typing import Dict

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


class SignedVoterModel(DiffusionModel):
    """Synchronous signed voter dynamics for a fixed number of rounds.

    Args:
        rounds: number of synchronous update rounds to simulate.
        update_probability: chance that a node re-samples its opinion in a
            given round (1.0 = classic synchronous voter model).
    """

    name = "voter"

    def __init__(self, rounds: int = 10, update_probability: float = 1.0) -> None:
        rounds = check_round_cap(rounds, "rounds", 0)
        if not 0.0 <= update_probability <= 1.0:
            raise InvalidModelParameterError(
                f"update_probability must be in [0,1], got {update_probability}"
            )
        self.rounds = rounds
        self.update_probability = update_probability

    def run(
        self,
        diffusion: SignedDiGraph,
        seeds: Dict[Node, NodeState],
        rng: RandomSource = None,
    ) -> DiffusionResult:
        validated, random, states, events = self._prepare(diffusion, seeds, rng)
        all_nodes = sorted_nodes(diffusion.nodes())

        for round_index in range(1, self.rounds + 1):
            snapshot = dict(states)
            for v in all_nodes:
                if random.random() >= self.update_probability:
                    continue
                # In the diffusion orientation an in-neighbour u of v is a
                # node v listens to (v trusts/distrusts u in the social graph).
                in_neighbors = sorted_nodes(diffusion.predecessors(v))
                if not in_neighbors:
                    continue
                u = in_neighbors[random.randrange(len(in_neighbors))]
                s_u = snapshot.get(u, NodeState.INACTIVE)
                if not s_u.is_active:
                    continue
                new_state = s_u.times(diffusion.sign(u, v))
                if new_state != states.get(v, NodeState.INACTIVE):
                    was_flip = states.get(v, NodeState.INACTIVE).is_active
                    states[v] = new_state
                    events.append(
                        ActivationEvent(
                            round=round_index,
                            source=u,
                            target=v,
                            state=new_state,
                            was_flip=was_flip,
                        )
                    )

        return DiffusionResult(
            seeds=validated, final_states=states, events=events, rounds=self.rounds
        )
