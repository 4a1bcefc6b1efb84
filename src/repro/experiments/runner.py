"""Detector evaluation and multi-trial aggregation.

Trials are independent (each builds its own workload from
``(config, trial)``), so :func:`run_detection_trials` fans them out over
the :mod:`repro.runtime` process pool when given a
``RuntimeConfig(workers > 1)``. Detector *instances* — not the factory
closures, which are rarely picklable — are constructed in the parent and
shipped to workers, preserving the construction-per-trial semantics.
Parallel aggregation is bit-identical to serial execution except for the
measured wall-clock ``seconds``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from statistics import mean
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.detectors.base import Detector
from repro.experiments.config import WorkloadConfig
from repro.experiments.workload import Workload, build_workload
from repro.metrics.identity import IdentityMetrics, identity_metrics
from repro.metrics.state import StateMetrics, state_metrics
from repro.obs.recorder import Recorder, resolve_recorder
from repro.runtime.config import SERIAL, RuntimeConfig
from repro.runtime.executor import run_trials


@dataclass
class DetectorEvaluation:
    """Scores of one detector on one workload.

    Attributes:
        method: detector label.
        identity: precision/recall/F1 against the planted initiators.
        state: state-inference metrics (None for identity-only methods).
        num_detected: size of the reported initiator set.
        num_truth: size of the planted initiator set.
        seconds: wall-clock detection time.
    """

    method: str
    identity: IdentityMetrics
    state: Optional[StateMetrics]
    num_detected: int
    num_truth: int
    seconds: float


def evaluate_detector(
    detector: Detector,
    workload: Workload,
    recorder: Optional[Recorder] = None,
    *,
    runtime: Optional[RuntimeConfig] = None,
) -> DetectorEvaluation:
    """Run ``detector`` on a workload and score it against ground truth.

    ``runtime=`` is forwarded to the detector, which either honours it
    (RID) or rejects it with :class:`~repro.errors.ConfigError` — it is
    never silently dropped.
    """
    rec = resolve_recorder(recorder)
    start = time.perf_counter()
    result = detector.detect(workload.infected, recorder=rec, runtime=runtime)
    elapsed = time.perf_counter() - start
    if rec.enabled:
        rec.timing(f"eval.{detector.name}", elapsed)
    truth = set(workload.seeds)
    identity = identity_metrics(result.initiators, truth)
    state: Optional[StateMetrics] = None
    if result.states:
        state = state_metrics(result.states, workload.ground_truth_states())
    return DetectorEvaluation(
        method=result.method,
        identity=identity,
        state=state,
        num_detected=len(result.initiators),
        num_truth=len(truth),
        seconds=elapsed,
    )


@dataclass
class AggregatedEvaluation:
    """Trial-averaged detector scores."""

    method: str
    precision: float
    recall: float
    f1: float
    num_detected: float
    accuracy: Optional[float]
    mae: Optional[float]
    r2: Optional[float]
    seconds: float
    trials: int


def aggregate_evaluations(evaluations: Sequence[DetectorEvaluation]) -> AggregatedEvaluation:
    """Average a detector's scores over trials (state metrics only when
    every trial produced them)."""
    if not evaluations:
        raise ValueError("cannot aggregate zero evaluations")
    has_state = all(e.state is not None for e in evaluations)
    return AggregatedEvaluation(
        method=evaluations[0].method,
        precision=mean(e.identity.precision for e in evaluations),
        recall=mean(e.identity.recall for e in evaluations),
        f1=mean(e.identity.f1 for e in evaluations),
        num_detected=mean(float(e.num_detected) for e in evaluations),
        accuracy=mean(e.state.accuracy for e in evaluations) if has_state else None,
        mae=mean(e.state.mae for e in evaluations) if has_state else None,
        r2=mean(e.state.r2 for e in evaluations) if has_state else None,
        seconds=mean(e.seconds for e in evaluations),
        trials=len(evaluations),
    )


def _detection_trial(
    config: WorkloadConfig,
    spec: Tuple[int, List[Tuple[str, Detector]]],
) -> List[Tuple[str, DetectorEvaluation]]:
    """One detection trial: build the workload, score every detector on it."""
    trial, detectors = spec
    workload = build_workload(config, trial=trial)
    return [(name, evaluate_detector(detector, workload)) for name, detector in detectors]


def run_detection_trials(
    config: WorkloadConfig,
    detector_factories: Dict[str, Callable[[], Detector]],
    trials: int = 3,
    runtime: Optional[RuntimeConfig] = None,
) -> Dict[str, AggregatedEvaluation]:
    """Evaluate each detector factory over ``trials`` derived workloads.

    Detectors are constructed fresh per trial (they may carry per-run
    diagnostics); all detectors see the *same* workload in each trial so
    comparisons are paired. With ``runtime.workers > 1`` whole trials run
    in parallel worker processes (falling back to serial when a detector
    instance cannot be pickled).
    """
    specs = [
        (trial, [(name, factory()) for name, factory in detector_factories.items()])
        for trial in range(trials)
    ]
    outcome = run_trials(
        _detection_trial,
        config,
        specs,
        config=runtime or SERIAL,
        label="detection-trials",
    )
    per_method: Dict[str, List[DetectorEvaluation]] = {name: [] for name in detector_factories}
    for trial_result in outcome.results:
        for name, evaluation in trial_result:
            per_method[name].append(evaluation)
    return {name: aggregate_evaluations(evs) for name, evs in per_method.items()}
