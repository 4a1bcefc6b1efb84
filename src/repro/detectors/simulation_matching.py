"""Simulation-matching detector: score candidates by forward simulation.

A model-based alternative to RID's likelihood machinery: for each
candidate initiator set, run the MFC model forward several times and
score how well the simulated infections reproduce the observed snapshot
(Jaccard similarity of infected sets plus state agreement). Candidates
are grown greedily from the best-matching single sources.

Exponentially more expensive than RID but makes no tree or
nearest-ancestor approximations — useful as a sanity-check detector on
small snapshots and as a reference point in ablations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.components import infected_components
from repro.detectors.base import DetectionResult, Detector
from repro.detectors.effectors import spreader_candidates
from repro.errors import ConfigError
from repro.graphs.signed_digraph import SignedDiGraph
from repro.obs.recorder import Recorder
from repro.types import Node, NodeState
from repro.utils.rng import derive_seed


@dataclass
class SimulationMatchingConfig:
    """Hyper-parameters of :class:`SimulationMatchingDetector`.

    Attributes:
        alpha: MFC boosting coefficient for the forward simulations.
        trials: Monte-Carlo samples per candidate evaluation.
        budget: initiators grown per component — a cap on the greedy,
            not an exact count (the registry row reports no budget
            support).
        candidate_limit: shortlist size per component (by out-degree);
            None = all infected nodes.
        improvement_threshold: minimum match-score gain to accept one
            more initiator (the stopping rule).
        seed: RNG stream root.
    """

    alpha: float = 3.0
    trials: int = 8
    budget: int = 3
    candidate_limit: Optional[int] = 20
    improvement_threshold: float = 0.01
    seed: int = 0

    def validate(self) -> None:
        """Raise :class:`ConfigError` on out-of-range settings."""
        if self.alpha < 1.0:
            raise ConfigError(f"alpha must be >= 1, got {self.alpha}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.budget < 1:
            raise ConfigError(f"budget must be >= 1, got {self.budget}")
        if self.candidate_limit is not None and self.candidate_limit < 1:
            raise ConfigError(
                f"candidate_limit must be >= 1 or None, got {self.candidate_limit}"
            )


class SimulationMatchingDetector(Detector):
    """Greedy forward-simulation matcher under MFC.

    Args:
        config: the :class:`SimulationMatchingConfig` (defaults when
            omitted).
    """

    name = "simulation-matching"

    def __init__(self, config: Optional[SimulationMatchingConfig] = None) -> None:
        # Imported here, not at module level: detectors load at package
        # import, the diffusion models only once a detector is built.
        from repro.diffusion.mfc import MFCModel

        self.config = config or SimulationMatchingConfig()
        self.config.validate()
        self.model = MFCModel(alpha=self.config.alpha)

    # ------------------------------------------------------------------

    def match_score(
        self, component: SignedDiGraph, initiators: Dict[Node, NodeState], stream: int
    ) -> float:
        """Mean similarity between simulated cascades and the snapshot.

        Similarity of one cascade = Jaccard overlap of the infected sets,
        weighted by the state-agreement rate on the overlap. All trials
        run through one :func:`~repro.diffusion.monte_carlo
        .simulate_batch` call: simulations run on the component itself,
        so each simulated infected set is a subset of the observed one —
        Jaccard reduces to ``|simulated| / |observed|`` and the agreement
        rate to a per-trial state-match count over the final-state
        matrix.
        """
        from repro.diffusion.monte_carlo import simulate_batch

        trials = self.config.trials
        observed = {node: component.state(node) for node in component.nodes()}
        summary = simulate_batch(
            self.model,
            component,
            initiators,
            trials,
            base_seed=derive_seed(self.config.seed, "simmatch", stream),
            record_states=True,
        )
        matches = summary.match_totals(observed)
        total = 0.0
        for simulated, matched in zip(summary.infected, matches):
            if not simulated:
                continue
            jaccard = simulated / len(observed)
            agreement = matched / simulated
            total += jaccard * agreement
        return total / trials

    def _detect(self, infected: SignedDiGraph, recorder: Recorder) -> DetectionResult:
        initiators: Dict[Node, NodeState] = {}
        for index, component in enumerate(infected_components(infected)):
            if component.number_of_nodes() == 1:
                (node,) = component.nodes()
                initiators[node] = component.state(node)
                continue
            chosen: Dict[Node, NodeState] = {}
            best_score = float("-inf")
            candidates = spreader_candidates(component, self.config.candidate_limit)
            for step in range(min(self.config.budget, len(candidates))):
                best_candidate: Optional[Node] = None
                best_candidate_score = best_score
                for candidate in candidates:
                    if candidate in chosen:
                        continue
                    hypothesis = dict(chosen)
                    hypothesis[candidate] = component.state(candidate)
                    score = self.match_score(
                        component, hypothesis, stream=index * 100 + step
                    )
                    if score > best_candidate_score:
                        best_candidate_score, best_candidate = score, candidate
                if best_candidate is None:
                    break
                gain = best_candidate_score - (best_score if chosen else 0.0)
                if chosen and gain < self.config.improvement_threshold:
                    break
                chosen[best_candidate] = component.state(best_candidate)
                best_score = best_candidate_score
            initiators.update(chosen)
        return DetectionResult(
            method=self.name, initiators=set(initiators), states=initiators
        )
