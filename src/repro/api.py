"""The stable facade: ``repro.detect`` / ``repro.simulate`` / ``repro.evaluate``.

Callers should not need to know which submodule holds the RID pipeline,
the cascade kernel, or the trial runtime. This module is the blessed,
instrumentable entry surface:

* :func:`detect` — snapshot in, :class:`DetectionResult` out;
* :func:`simulate` — run a diffusion model (by instance or name) once
  or many times with deterministic derived seeds;
* :func:`evaluate` — score a detector against a ground-truthed
  workload, single-shot or trial-averaged.

Every function takes an optional ``recorder=`` (see :mod:`repro.obs`)
and installs it as the ambient recorder for the duration of the call,
so all stage spans and kernel counters land in one report::

    import repro
    from repro.obs import MetricsRecorder, format_report

    recorder = MetricsRecorder()
    result = repro.detect(diffusion, cascade, recorder=recorder)
    print(format_report(recorder.metrics))

Compatibility contract: names exported here (and re-exported from
:mod:`repro`) keep their signatures stable across releases; a
superseded keyword goes through a :class:`DeprecationWarning` cycle
first and is then removed from the signature, so a stale call fails
with Python's own :class:`TypeError` (the detector ``k=``/``max_k=``
budget spellings went that way — pass ``budget``). Every
:class:`~repro.detectors.Detector` accepts ``runtime=`` and either
honours it (RID) or rejects it with :class:`~repro.errors.ConfigError`,
so :func:`detect` passes it straight through.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple, Union

from repro.detectors.base import DetectionResult, Detector
from repro.detectors.registry import (
    canonical_detector_name,
    coerce_detector_config,
    resolve_detector,
)
from repro.core.rid import RID, RIDConfig
from repro.diffusion.base import DiffusionModel, DiffusionResult
from repro.diffusion.ic import ICModel
from repro.diffusion.lt import LTModel
from repro.diffusion.mfc import MFCModel
from repro.diffusion.monte_carlo import simulate_many
from repro.diffusion.pic import PICModel
from repro.diffusion.sir import SIRModel
from repro.diffusion.voter import SignedVoterModel
from repro.errors import ConfigError
from repro.graphs.signed_digraph import SignedDiGraph
from repro.obs.recorder import Recorder, resolve_recorder, using_recorder
from repro.runtime.config import RuntimeConfig
from repro.types import Node, NodeState
from repro.utils.rng import RandomSource

#: Model names accepted by :func:`simulate`'s ``model=`` argument.
MODEL_REGISTRY = {
    "mfc": MFCModel,
    "ic": ICModel,
    "lt": LTModel,
    "sir": SIRModel,
    "voter": SignedVoterModel,
    "pic": PICModel,
}

#: A snapshot: an infected network, a simulation outcome, or observed states.
Snapshot = Union[SignedDiGraph, DiffusionResult, Mapping[Node, NodeState], None]


def _resolve_model(
    model: Union[DiffusionModel, str, None], backend: Optional[str] = None
) -> DiffusionModel:
    if isinstance(model, DiffusionModel):
        if backend is not None:
            raise ConfigError(
                "pass backend= to the model constructor when supplying a "
                "DiffusionModel instance"
            )
        return model
    if model is None:
        factory = MFCModel
    else:
        try:
            factory = MODEL_REGISTRY[model]
        except (KeyError, TypeError):
            raise ConfigError(
                f"unknown diffusion model {model!r}; expected a DiffusionModel "
                f"instance or one of {sorted(MODEL_REGISTRY)}"
            ) from None
    if backend is None:
        return factory()
    try:
        return factory(backend=backend)
    except TypeError:
        raise ConfigError(
            f"diffusion model {getattr(factory, 'name', factory.__name__)!r} "
            "does not run on the cascade kernel and takes no backend="
        ) from None


def infected_snapshot(graph: SignedDiGraph, snapshot: Snapshot) -> SignedDiGraph:
    """Materialise the infected network ``G_I`` from any snapshot form.

    Accepts the three ways callers naturally hold an observation:

    * ``None`` — ``graph`` *is* the infected network already (its nodes
      carry observed states);
    * a :class:`DiffusionResult` — the simulation outcome; its infected
      subgraph of ``graph`` is extracted;
    * a mapping ``node → state`` — observed states; the infected
      subgraph over actively-stated nodes is induced from ``graph``.
    """
    if snapshot is None:
        return graph
    if isinstance(snapshot, DiffusionResult):
        return snapshot.infected_network(graph)
    if isinstance(snapshot, SignedDiGraph):
        return snapshot
    states = {node: NodeState(state) for node, state in snapshot.items()}
    infected = [node for node, state in states.items() if state.is_active]
    for node in infected:
        if not graph.has_node(node):
            raise ConfigError(f"snapshot node {node!r} is not in the network")
    sub = graph.subgraph(infected, name="infected")
    for node in infected:
        sub.set_state(node, states[node])
    return sub


def _resolve_api_detector(
    detector: Union[str, Detector, None], config
) -> Tuple[Detector, str]:
    """Resolve :func:`detect`'s ``detector=``/``config=`` pair.

    Returns the detector instance and its registry (or instance) name.
    ``detector=None`` is the RID default path — kept structurally
    identical to the pre-registry facade so results stay bit-identical.
    """
    if detector is None:
        config = config or RIDConfig()
        if not isinstance(config, RIDConfig):
            raise ConfigError(
                "config= without detector= configures RID and must be a "
                "RIDConfig; pass detector='<name>' to configure another "
                "registry entry"
            )
        return RID(config), "rid"
    if isinstance(detector, str):
        name = canonical_detector_name(detector)
        return resolve_detector(name, coerce_detector_config(name, config)), name
    if isinstance(detector, Detector):
        if config is not None:
            raise ConfigError(
                "pass config= or a pre-built detector instance, not both; "
                "the instance already carries its configuration"
            )
        return detector, getattr(detector, "name", "detector")
    raise ConfigError(
        "detector must be a registry name, a Detector instance, or None, "
        f"got {type(detector).__name__}"
    )


def detect(
    graph: SignedDiGraph,
    snapshot: Snapshot = None,
    *,
    config=None,
    detector: Union[str, Detector, None] = None,
    budget: Optional[int] = None,
    runtime: Optional[RuntimeConfig] = None,
    recorder: Optional[Recorder] = None,
) -> DetectionResult:
    """Detect the rumor initiators behind an infected snapshot.

    Args:
        graph: the diffusion network (or, with ``snapshot=None``, the
            infected network itself).
        snapshot: the observation — see :func:`infected_snapshot`.
        config: detector hyper-parameters. Without ``detector=`` this is
            RID's :class:`RIDConfig` (default constructed); with a
            registry name it is that entry's config dataclass, a dict of
            its fields, or ``None`` for defaults. Invalid alongside a
            pre-built detector instance.
        detector: which detector to run — ``None`` (RID, the default), a
            registry name (``'rid'``, ``'rumor_centrality'``,
            ``'jordan_center'``, ``'distance_center'``, ``'map_suspect'``,
            ``'multi_source'``, ...; see
            :func:`repro.detectors.detector_names`), or a pre-built
            :class:`~repro.detectors.Detector` instance.
        budget: when given, detect exactly this many initiators via
            ``detect_with_budget`` (RID's exact knapsack; score-ranked
            selection for the centrality family).
        runtime: execution configuration. RID honours it (per-component
            fan-out, artifact persistence under ``cache_dir``); every
            other detector rejects a non-inert runtime with
            :class:`ConfigError` — it is never silently dropped.
        recorder: observability sink, installed as the ambient recorder
            for the whole call (``detector.*`` request counters land
            here).

    Returns:
        The :class:`DetectionResult` with initiator identities, inferred
        states (where the detector provides them), and cascade trees.
    """
    rec = resolve_recorder(recorder)
    with using_recorder(rec):
        resolved, name = _resolve_api_detector(detector, config)
        if rec.enabled:
            rec.incr("detector.requests")
            rec.incr(f"detector.{name}.requests")
        infected = infected_snapshot(graph, snapshot)
        if budget is not None:
            result = resolved.detect_with_budget(
                infected, budget, recorder=rec, runtime=runtime
            )
        else:
            result = resolved.detect(infected, recorder=rec, runtime=runtime)
        if rec.enabled:
            rec.incr("detector.initiators", result.num_detected())
        return result


def detect_stream(
    events,
    graph: Optional[SignedDiGraph] = None,
    *,
    config=None,
    detector: Union[str, Detector, None] = None,
    budget: Optional[int] = None,
    runtime: Optional[RuntimeConfig] = None,
    recorder: Optional[Recorder] = None,
):
    """Replay a delta stream, re-detecting incrementally after each delta.

    The streaming counterpart of :func:`detect`: instead of one
    snapshot, the observation is an initial network plus a sequence of
    :class:`~repro.stream.delta.SnapshotDelta` events. Detection after
    every delta gives the same initiators and states as a cold
    :func:`detect` on the materialised snapshot, with the objective
    equal up to float rounding (cascade trees can differ when
    co-optimal forests tie), but only dirty components pay for
    Arborescence/TreeDP — untouched components reuse cached artifacts
    (see :mod:`repro.stream.engine` for the identity guarantee).

    Args:
        events: a JSONL event-log path (see
            :func:`repro.stream.read_event_log`), a parsed
            :class:`~repro.stream.events.EventLog`, or any iterable of
            :class:`~repro.stream.delta.SnapshotDelta`.
        graph: the initial network. Optional when the event log carries
            its own snapshot record; required otherwise.
        config: detector hyper-parameters, resolved exactly as in
            :func:`detect` (RID's :class:`RIDConfig` by default; the
            named entry's config with ``detector=``).
        detector: which detector re-detects after each delta — ``None``,
            ``'rid'`` or a :class:`~repro.core.rid.RID` instance takes
            the incremental path (per-component artifact reuse); any
            other registry name or pre-built instance re-detects on the
            materialised snapshot per step.
        budget: when given, every re-detection runs budgeted detection
            with this budget instead of the detector's open-ended rule.
        runtime: execution configuration (worker fan-out applies to the
            dirty components of each step).
        recorder: observability sink for the whole replay (the
            ``stream.*`` spans/counters land here).

    Returns:
        A :class:`~repro.stream.engine.StreamReplay` — one
        :class:`~repro.stream.engine.StreamStep` per delta, in order,
        indexable like a list; ``replay.final`` is the final detection
        and ``replay.latencies`` the per-delta wall times.
    """
    from repro.stream import EventLog, StreamingDetectionEngine, read_event_log

    if isinstance(events, (str, Path)):
        events = read_event_log(events)
    if isinstance(events, EventLog):
        deltas = events.deltas
        if events.snapshot is not None:
            if graph is not None:
                raise ConfigError(
                    "the event log carries its own snapshot; pass graph=None"
                )
            graph = events.snapshot
    else:
        deltas = list(events)
    if graph is None:
        raise ConfigError(
            "detect_stream needs an initial network: pass graph= or an event "
            "log whose first record is a snapshot"
        )
    rec = resolve_recorder(recorder)
    with using_recorder(rec):
        resolved, name = _resolve_api_detector(detector, config)
        if rec.enabled:
            rec.incr("detector.requests")
            rec.incr(f"detector.{name}.requests")
        engine = StreamingDetectionEngine(graph, detector=resolved, runtime=runtime)
        return engine.replay(deltas, budget=budget, recorder=rec)


def simulate(
    graph: SignedDiGraph,
    seeds: Dict[Node, NodeState],
    *,
    model: Union[DiffusionModel, str, None] = None,
    backend: Optional[str] = None,
    trials: Optional[int] = None,
    rng: RandomSource = 0,
    runtime: Optional[RuntimeConfig] = None,
    recorder: Optional[Recorder] = None,
) -> Union[DiffusionResult, List[DiffusionResult]]:
    """Spread a rumor from ``seeds`` over ``graph``.

    Args:
        graph: the weighted signed diffusion network.
        seeds: initiators with their initial states (``{-1, +1}``).
        model: a :class:`~repro.diffusion.base.DiffusionModel` instance
            or a registry name (``'mfc'``, ``'ic'``, ``'lt'``, ``'sir'``,
            ``'voter'``, ``'pic'``); default MFC with paper parameters.
        backend: kernel execution backend for registry-name models that
            run on the cascade kernel (``'mfc'``/``'ic'``); pass it to
            the constructor instead when supplying a model instance.
        trials: ``None`` runs one cascade and returns its
            :class:`DiffusionResult`; an integer runs that many
            independent cascades (deterministic derived seeds, optional
            process-pool fan-out via ``runtime``) and returns a list.
        rng: seed or generator; for multi-trial runs it must be an
            integer base seed.
        runtime: trial fan-out configuration (multi-trial runs only).
        recorder: observability sink, installed as the ambient recorder
            for the whole call.
    """
    resolved = _resolve_model(model, backend)
    rec = resolve_recorder(recorder)
    with using_recorder(rec):
        if trials is None:
            return resolved.run(graph, seeds, rng=rng)
        if not isinstance(rng, int):
            raise ConfigError(
                "multi-trial simulate() derives per-trial seeds and needs an "
                f"integer base seed, got {type(rng).__name__}"
            )
        return simulate_many(
            resolved, graph, seeds, trials, base_seed=rng, runtime=runtime,
            recorder=rec,
        )


def evaluate(
    detector,
    workload,
    runtime: Optional[RuntimeConfig] = None,
    *,
    trials: int = 3,
    config=None,
    recorder: Optional[Recorder] = None,
):
    """Score a detector against a ground-truthed workload.

    Args:
        detector: a registry name (``'rid'``, ``'jordan_center'``, ...;
            see :func:`repro.detectors.detector_names`), a
            :class:`~repro.detectors.Detector` instance, or a
            zero-argument factory returning one (names and factories
            rebuild the detector per trial, keeping per-run diagnostics
            separate).
        workload: a materialised
            :class:`~repro.experiments.workload.Workload` (scored once,
            returning a
            :class:`~repro.experiments.runner.DetectorEvaluation`) or a
            :class:`~repro.experiments.config.WorkloadConfig` (scored
            over ``trials`` derived workloads, returning an
            :class:`~repro.experiments.runner.AggregatedEvaluation`).
        runtime: execution configuration. Config form: trial fan-out.
            Workload form: forwarded to the detector, which honours or
            rejects it (:class:`ConfigError`) — never silently dropped.
        trials: number of derived workloads (config form only; must
            be at least 1).
        config: per-detector configuration (registry names only) — a
            dict of config fields or the entry's config dataclass.
        recorder: observability sink, installed as the ambient recorder
            for the whole call.
    """
    # Imported here: repro.api is imported from repro/__init__, and the
    # experiments package imports repro submodules back.
    from repro.experiments.config import WorkloadConfig
    from repro.experiments.runner import evaluate_detector, run_detection_trials
    from repro.experiments.workload import Workload

    rec = resolve_recorder(recorder)
    if isinstance(detector, str):
        name = canonical_detector_name(detector)
        resolved_config = coerce_detector_config(name, config)
        factory = lambda: resolve_detector(name, resolved_config)  # noqa: E731
    elif config is not None:
        raise ConfigError(
            "config= only applies to registry names; a detector instance "
            "or factory already carries its configuration"
        )
    elif callable(detector) and not isinstance(detector, Detector):
        factory = detector
    else:
        factory = None
    with using_recorder(rec):
        if isinstance(workload, Workload):
            instance = factory() if factory is not None else detector
            return evaluate_detector(
                instance, workload, recorder=rec, runtime=runtime
            )
        if isinstance(workload, WorkloadConfig):
            if trials < 1:
                raise ConfigError(f"trials must be >= 1, got {trials}")
            make = factory if factory is not None else (lambda: detector)
            name = getattr(make(), "name", "detector")
            scores = run_detection_trials(
                workload, {name: make}, trials=trials, runtime=runtime
            )
            return scores[name]
    raise ConfigError(
        f"workload must be a Workload or WorkloadConfig, got {type(workload).__name__}"
    )
