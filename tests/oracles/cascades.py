"""Reference cascade simulators: the dict-of-dict MFC and IC loops.

These are the loops :class:`repro.diffusion.mfc.MFCModel` and
:class:`repro.diffusion.ic.ICModel` ran before the CSR kernel
(:mod:`repro.kernel.cascade`) became their only path. The kernel
reproduces them event for event: same activation order, same states,
same rounds, same RNG consumption. The kernel identity tests and
``benchmarks/bench_kernel.py`` compare the two.

Each oracle carries the production model's ``name`` and public
parameters, so :func:`repro.runtime.cache.model_digest` gives both the
same digest. Neither is an ``MFCModel``/``ICModel`` instance, so the
Monte-Carlo helpers run them through the per-trial fallback path.
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

from repro.diffusion.base import (
    ActivationEvent,
    DiffusionModel,
    DiffusionResult,
    sorted_nodes,
)
from repro.diffusion.mfc import boosted_probability
from repro.errors import InvalidModelParameterError
from repro.graphs.signed_digraph import SignedDiGraph
from repro.types import Node, NodeState, Sign
from repro.utils.rng import RandomSource


class ReferenceMFCModel(DiffusionModel):
    """Paper Algorithm 1 over the dict-of-dict graph (the MFC oracle).

    Args:
        alpha: asymmetric boosting coefficient ``α >= 1``.
        allow_flips: False gives the boost-only ablation.
        max_rounds: safety valve on the number of rounds.

    Raises:
        InvalidModelParameterError: on ``alpha < 1`` or bad max_rounds.
    """

    name = "mfc"

    def __init__(
        self,
        alpha: float = 3.0,
        allow_flips: bool = True,
        max_rounds: int = 1_000_000,
    ) -> None:
        if not alpha >= 1.0:
            raise InvalidModelParameterError(
                f"alpha must be >= 1 (paper: alpha > 1), got {alpha!r}"
            )
        if max_rounds < 1:
            raise InvalidModelParameterError(f"max_rounds must be >= 1, got {max_rounds}")
        self.alpha = float(alpha)
        self.allow_flips = allow_flips
        self.max_rounds = max_rounds

    def run(
        self,
        diffusion: SignedDiGraph,
        seeds: Dict[Node, NodeState],
        rng: RandomSource = None,
    ) -> DiffusionResult:
        """Simulate Algorithm 1.

        Frontier processing is deterministic given the RNG: nodes within a
        round, and the targets of each node, are visited in sorted order.
        """
        validated, random, states, events = self._prepare(diffusion, seeds, rng)
        recently_infected = sorted_nodes(validated)
        attempted: Set[Tuple[Node, Node]] = set()
        round_index = 0

        while recently_infected and round_index < self.max_rounds:
            round_index += 1
            newly_infected = []
            newly_infected_set: Set[Node] = set()
            for u in recently_infected:
                s_u = states[u]
                if not s_u.is_active:
                    # u was flipped to a state and then further flipped by a
                    # different activator within the same bookkeeping round;
                    # states are always active here, but guard regardless.
                    continue
                for v in sorted_nodes(diffusion.successors(u)):
                    if (u, v) in attempted:
                        continue
                    s_v = states.get(v, NodeState.INACTIVE)
                    link_sign = diffusion.sign(u, v)
                    is_fresh = not s_v.is_active
                    is_flip = (
                        self.allow_flips
                        and s_v.is_active
                        and link_sign is Sign.POSITIVE
                        and s_u != s_v
                    )
                    if not (is_fresh or is_flip):
                        continue
                    attempted.add((u, v))
                    probability = boosted_probability(
                        diffusion.weight(u, v), link_sign, self.alpha
                    )
                    if random.random() < probability:
                        new_state = s_u.times(link_sign)
                        states[v] = new_state
                        events.append(
                            ActivationEvent(
                                round=round_index,
                                source=u,
                                target=v,
                                state=new_state,
                                was_flip=not is_fresh,
                            )
                        )
                        if v not in newly_infected_set:
                            newly_infected.append(v)
                            newly_infected_set.add(v)
            recently_infected = sorted_nodes(newly_infected_set)

        return DiffusionResult(
            seeds=validated,
            final_states=states,
            events=events,
            rounds=round_index,
        )


class ReferenceICModel(DiffusionModel):
    """Independent Cascade over the dict-of-dict graph (the IC oracle).

    Args:
        propagate_signs: when True (default), an activated node takes
            state ``s(u)·s_D(u,v)``; when False it takes the activator's
            state.
    """

    name = "ic"

    def __init__(self, propagate_signs: bool = True) -> None:
        self.propagate_signs = propagate_signs

    def run(
        self,
        diffusion: SignedDiGraph,
        seeds: Dict[Node, NodeState],
        rng: RandomSource = None,
    ) -> DiffusionResult:
        validated, random, states, events = self._prepare(diffusion, seeds, rng)
        frontier = sorted_nodes(validated)
        attempted: Set[Tuple[Node, Node]] = set()
        round_index = 0

        while frontier:
            round_index += 1
            fresh: Set[Node] = set()
            for u in frontier:
                s_u = states[u]
                for v in sorted_nodes(diffusion.successors(u)):
                    if (u, v) in attempted:
                        continue
                    if states.get(v, NodeState.INACTIVE).is_active:
                        continue  # IC never re-activates
                    attempted.add((u, v))
                    if random.random() < diffusion.weight(u, v):
                        if self.propagate_signs:
                            new_state = s_u.times(diffusion.sign(u, v))
                        else:
                            new_state = s_u
                        states[v] = new_state
                        events.append(
                            ActivationEvent(
                                round=round_index, source=u, target=v, state=new_state
                            )
                        )
                        fresh.add(v)
            frontier = sorted_nodes(fresh)

        return DiffusionResult(
            seeds=validated, final_states=states, events=events, rounds=round_index
        )
