"""The k-Effectors baseline (Lappas, Terzi, Gunopulos, Mannila — KDD 2010).

The unsigned ancestor of the ISOMIT problem (Table I): given an
activation snapshot under the IC model, find the ``k`` *effectors* whose
cascade best explains it, scoring a candidate set ``I`` by the cost

    C(I) = Σ_{v}  | a(v) − P(v active | I) |

where ``a(v)`` is 1 for observed-active nodes and 0 otherwise, and the
activation probabilities come from Monte-Carlo simulation of the
(unsigned) IC dynamics. We implement the standard greedy minimiser over
candidate effectors, run per infected component: simulations stay
inside the component, whose nodes are all observed active, so the cost
counts the activations a candidate set leaves unexplained.

This detector ignores signs entirely — it is the "what if we used the
unsigned state of the art" comparison point for RID.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.core.components import infected_components
from repro.detectors.base import DetectionResult, Detector
from repro.errors import ConfigError
from repro.graphs.signed_digraph import SignedDiGraph
from repro.obs.recorder import Recorder
from repro.types import Node, NodeState
from repro.utils.rng import derive_seed


@dataclass
class KEffectorsConfig:
    """Hyper-parameters of :class:`KEffectorsDetector`.

    Attributes:
        budget: effectors grown per infected component — a cap on the
            greedy, not an exact count (the registry row reports no
            budget support).
        trials: Monte-Carlo samples per candidate evaluation.
        candidate_limit: evaluate at most this many candidates per
            component (highest out-degree first) to bound the cubic
            cost; None = all infected nodes.
        seed: base seed for the Monte-Carlo streams.
    """

    budget: int = 1
    trials: int = 10
    candidate_limit: Optional[int] = 30
    seed: int = 0

    def validate(self) -> None:
        """Raise :class:`ConfigError` on out-of-range settings."""
        if self.budget < 1:
            raise ConfigError(f"budget must be >= 1, got {self.budget}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.candidate_limit is not None and self.candidate_limit < 1:
            raise ConfigError(
                f"candidate_limit must be >= 1 or None, got {self.candidate_limit}"
            )


def spreader_candidates(component: SignedDiGraph, limit: Optional[int]) -> List[Node]:
    """The component's nodes by out-degree (repr ties), capped at ``limit``."""
    nodes = sorted(component.nodes(), key=repr)
    nodes.sort(key=component.out_degree, reverse=True)
    if limit is not None:
        nodes = nodes[:limit]
    return nodes


class KEffectorsDetector(Detector):
    """Greedy k-effectors over each infected component.

    Args:
        config: the :class:`KEffectorsConfig` (defaults when omitted).
    """

    name = "k-effectors"

    def __init__(self, config: Optional[KEffectorsConfig] = None) -> None:
        # Imported here, not at module level: detectors load at package
        # import, the diffusion models only once a detector is built.
        from repro.diffusion.ic import ICModel

        self.config = config or KEffectorsConfig()
        self.config.validate()
        self._ic = ICModel(propagate_signs=False)

    # ------------------------------------------------------------------

    def activation_probabilities(
        self, component: SignedDiGraph, effectors: Set[Node], stream: int
    ) -> Dict[Node, float]:
        """Monte-Carlo estimate of P(v active | effectors) under IC.

        All trials run through one
        :func:`~repro.diffusion.monte_carlo.simulate_batch` call, so the
        estimate inherits the batched kernel path of the shared facade.
        """
        from repro.diffusion.monte_carlo import simulate_batch

        trials = self.config.trials
        seeds = {node: NodeState.POSITIVE for node in effectors}
        summary = simulate_batch(
            self._ic,
            component,
            seeds,
            trials,
            base_seed=derive_seed(self.config.seed, "effectors", stream),
            record_states=True,
        )
        counts = summary.active_counts()
        return {node: counts.get(node, 0) / trials for node in component.nodes()}

    def cost(
        self, component: SignedDiGraph, effectors: Set[Node], stream: int
    ) -> float:
        """The Lappas et al. explanation cost of an effector set.

        All component nodes are observed active (they come from the
        infected snapshot), so the cost reduces to the expected number
        of unexplained activations ``Σ_v (1 − P(v active))``.
        """
        probabilities = self.activation_probabilities(component, effectors, stream)
        return sum(1.0 - p for p in probabilities.values())

    def _detect(self, infected: SignedDiGraph, recorder: Recorder) -> DetectionResult:
        initiators: Set[Node] = set()
        for index, component in enumerate(infected_components(infected)):
            if component.number_of_nodes() == 1:
                initiators.update(component.nodes())
                continue
            chosen: Set[Node] = set()
            candidates = spreader_candidates(component, self.config.candidate_limit)
            budget = min(self.config.budget, len(candidates))
            for step in range(budget):
                best_candidate = None
                best_cost = float("inf")
                for candidate in candidates:
                    if candidate in chosen:
                        continue
                    trial_cost = self.cost(
                        component, chosen | {candidate}, stream=index * 1000 + step
                    )
                    if trial_cost < best_cost:
                        best_cost, best_candidate = trial_cost, candidate
                if best_candidate is None:
                    break
                chosen.add(best_candidate)
            initiators.update(chosen)
        return DetectionResult(method=self.name, initiators=initiators)
