"""Suspect-prior MAP source detection (Dong et al., reusing our simulators).

``P(u | G_I) ∝ P(u) · P(G_I | u)``: for every candidate initiator ``u``
of an infected component, the likelihood of the observed infection is
estimated by Monte-Carlo forward simulation — reseed the component's
diffusion model from ``{u: observed state}``, run ``trials`` cascades,
and read off each node's activation frequency. The detector reports the
maximum-a-posteriori candidate per component (open-ended) or the
globally best-scoring candidates under an exact budget.

The score of candidate ``u`` on component ``C``::

    log P(u) + Σ_{v ∈ C} log(ε + (1 − ε) · freq_v(u))

where ``freq_v(u)`` is the fraction of trials in which ``v`` ended the
cascade active *with its observed state* (state-matching, so signed
models get credit for reproducing the observed opinion, not merely the
infection), and ``ε`` is additive smoothing keeping never-activated
nodes from collapsing the product to ``-inf``.

Everything is deterministic: each candidate's trials run as one
:func:`~repro.diffusion.monte_carlo.simulate_batch` call whose base seed
derives from ``(config.seed, component index, candidate)`` via
:func:`repro.utils.rng.derive_seed` (per-trial seeds then follow the
``simulate_many`` chain), and all argmax ties break repr-sorted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.core.components import infected_components
from repro.detectors.base import DetectionResult, Detector
from repro.detectors.centrality import select_with_budget
from repro.detectors.effectors import spreader_candidates
from repro.errors import ConfigError
from repro.graphs.signed_digraph import SignedDiGraph
from repro.obs.recorder import Recorder
from repro.types import Node
from repro.utils.rng import derive_seed

#: Diffusion models the MAP likelihood can be estimated under.
MAP_MODELS = ("mfc", "ic", "sir")

#: Candidate priors.
MAP_PRIORS = ("uniform", "degree")


@dataclass
class MapSuspectConfig:
    """Hyper-parameters of :class:`MapSuspectDetector`.

    Attributes:
        model: forward-simulation model for the likelihood estimate
            (``'mfc'`` — the paper's cascade model, default — ``'ic'``
            or ``'sir'``).
        trials: Monte-Carlo cascades per candidate. More trials sharpen
            the likelihood estimate linearly in cost.
        candidate_limit: per-component suspect-set size; the candidates
            are the top nodes by out-degree (spreading potential — the
            "suspect prior" of Dong et al. in its cheapest useful form).
            ``None`` scores every node of the component.
        smoothing: additive smoothing ``ε`` in the per-node likelihood
            term; must sit strictly inside ``(0, 1)``.
        alpha: MFC asymmetric boosting coefficient (``model='mfc'`` only).
        prior: candidate prior — ``'uniform'`` or ``'degree'``
            (out-degree-proportional, favouring plausible spreaders).
        seed: base seed for the derived per-candidate trial streams.
    """

    model: str = "mfc"
    trials: int = 8
    candidate_limit: Optional[int] = 16
    smoothing: float = 0.05
    alpha: float = 3.0
    prior: str = "uniform"
    seed: int = 0

    def validate(self) -> None:
        """Raise :class:`ConfigError` on out-of-range settings."""
        if self.model not in MAP_MODELS:
            raise ConfigError(
                f"model must be one of {list(MAP_MODELS)}, got {self.model!r}"
            )
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.candidate_limit is not None and self.candidate_limit < 1:
            raise ConfigError(
                f"candidate_limit must be >= 1 or None, got {self.candidate_limit}"
            )
        if not 0.0 < self.smoothing < 1.0:
            raise ConfigError(
                f"smoothing must be in (0, 1), got {self.smoothing}"
            )
        if self.alpha < 1.0:
            raise ConfigError(f"alpha must be >= 1, got {self.alpha}")
        if self.prior not in MAP_PRIORS:
            raise ConfigError(
                f"prior must be one of {list(MAP_PRIORS)}, got {self.prior!r}"
            )


class MapSuspectDetector(Detector):
    """Monte-Carlo MAP estimation over a per-component suspect set."""

    name = "map-suspect"

    def __init__(self, config: Optional[MapSuspectConfig] = None) -> None:
        self.config = config or MapSuspectConfig()
        self.config.validate()

    # -- likelihood machinery -------------------------------------------

    def _model(self):
        # Imported lazily: the diffusion package imports nothing back,
        # but detectors load at package-import time and models are only
        # needed once detection actually runs.
        if self.config.model == "mfc":
            from repro.diffusion.mfc import MFCModel

            return MFCModel(alpha=self.config.alpha)
        if self.config.model == "ic":
            from repro.diffusion.ic import ICModel

            return ICModel()
        from repro.diffusion.sir import SIRModel

        return SIRModel()

    def _log_prior(self, component: SignedDiGraph, candidates: List[Node]) -> Dict[Node, float]:
        if self.config.prior == "uniform":
            return {node: -math.log(len(candidates)) for node in candidates}
        mass = {node: component.out_degree(node) + 1.0 for node in candidates}
        total = sum(mass.values())
        return {node: math.log(weight / total) for node, weight in mass.items()}

    def _score_component(
        self, component: SignedDiGraph, index: int, rec: Recorder
    ) -> Dict[Node, float]:
        """MAP score of every candidate of one component."""
        # Imported lazily like the models: detectors load at package
        # import, the Monte-Carlo facade only once detection runs.
        from repro.diffusion.monte_carlo import simulate_batch

        model = self._model()
        eps = self.config.smoothing
        trials = self.config.trials
        nodes = sorted(component.nodes(), key=repr)
        observed = {node: component.state(node) for node in nodes}
        candidates = spreader_candidates(component, self.config.candidate_limit)
        log_prior = self._log_prior(component, candidates)
        scores: Dict[Node, float] = {}
        for candidate in candidates:
            # One batched call per candidate: kernel-capable models run
            # all trials in a single backend sweep and the state-match
            # counting happens over the compact final-state matrix.
            summary = simulate_batch(
                model,
                component,
                {candidate: observed[candidate]},
                trials,
                base_seed=derive_seed(
                    self.config.seed, "map_suspect", index, repr(candidate)
                ),
                recorder=rec,
                record_states=True,
            )
            matches = summary.match_counts(observed)
            if rec.enabled:
                rec.incr("detector.map_suspect.simulations", trials)
            score = log_prior[candidate]
            for node in nodes:
                freq = matches.get(node, 0) / trials
                score += math.log(eps + (1.0 - eps) * freq)
            scores[candidate] = score
        return scores

    def _component_scores(
        self, infected: SignedDiGraph, rec: Recorder
    ) -> List[Dict[Node, float]]:
        scores: List[Dict[Node, float]] = []
        for index, component in enumerate(infected_components(infected)):
            with rec.span(
                "map_suspect.score_component",
                nodes=component.number_of_nodes(),
            ):
                scores.append(self._score_component(component, index, rec))
        return scores

    # -- detector hooks -------------------------------------------------

    def _detect(self, infected: SignedDiGraph, recorder: Recorder) -> DetectionResult:
        """The MAP candidate of every infected component."""
        initiators: Set[Node] = set()
        objective = 0.0
        for scores in self._component_scores(infected, recorder):
            best = max(sorted(scores, key=repr), key=lambda n: scores[n])
            initiators.add(best)
            objective += scores[best]
        return DetectionResult(
            method=self.name, initiators=initiators, objective=objective
        )

    def _select(
        self, infected: SignedDiGraph, budget: int, recorder: Recorder
    ) -> Set[Node]:
        """Per-component MAP core plus the globally best remaining candidates."""
        return select_with_budget(
            self._component_scores(infected, recorder), budget, method=self.name
        )
