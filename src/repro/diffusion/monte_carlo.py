"""Monte-Carlo helpers over diffusion models.

Repeated simulation with derived per-trial seeds, plus simple spread and
state-mix estimators. Used by the MFC-vs-IC comparison (Figure 2 bench)
and the α-sensitivity ablation.

Trials are independent by construction — each derives its own seed via
``derive_seed(base_seed, model.name, trial)`` — so they fan out over the
:mod:`repro.runtime` process pool when the caller passes a
``RuntimeConfig(workers > 1)``, with bit-identical results to serial
execution. With a ``cache_dir`` configured, finished trials are stored
in an on-disk JSON cache keyed by (graph, model params, seeds,
base_seed, trial) and re-runs skip them.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import mean, pstdev
from typing import Dict, List, Optional

from repro.diffusion.base import DiffusionModel, DiffusionResult
from repro.diffusion.ic import ICModel
from repro.diffusion.mfc import MFCModel
from repro.errors import ConfigError
from repro.graphs.signed_digraph import SignedDiGraph
from repro.kernel.batch import CascadeBatchSummary, run_ic_batch, run_mfc_batch
from repro.kernel.cascade import check_seeds_compiled
from repro.kernel.compile import compile_graph
from repro.obs.recorder import Recorder, resolve_recorder
from repro.runtime.cache import (
    TrialCache,
    graph_digest,
    model_digest,
    seeds_digest,
    stable_digest,
)
from repro.runtime.config import SERIAL, RuntimeConfig
from repro.runtime.executor import TrialOutcome, run_trials
from repro.types import Node, NodeState
from repro.utils.rng import derive_seed


@dataclass
class SpreadEstimate:
    """Aggregated cascade statistics over repeated simulations.

    Attributes:
        mean_infected: average final infected-set size.
        std_infected: population standard deviation of the size.
        mean_positive_fraction: average share of infected nodes ending
            with state +1, taken over *non-empty* cascades only (an
            empty cascade has no state mix to measure; counting it as
            0.0 would silently bias the mean downward). 0.0 when every
            cascade ended empty.
        mean_negative_fraction: complementary share ending with state
            -1, same non-empty-cascade convention (the state-mix figures
            plot both sides; within any non-empty cascade the two
            fractions sum to 1).
        mean_flips: average number of flip events per cascade.
        mean_rounds: average rounds to quiescence.
        trials: number of simulations aggregated (including empty ones).
    """

    mean_infected: float
    std_infected: float
    mean_positive_fraction: float
    mean_negative_fraction: float
    mean_flips: float
    mean_rounds: float
    trials: int


def _check_trials(trials: int) -> None:
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")


def _simulate_trial(payload, trial: int) -> DiffusionResult:
    """One Monte-Carlo trial; module-level so process pools can import it.

    The seed is derived *here*, from ``(base_seed, model.name, trial)``,
    so workers reproduce exactly the stream a serial run would use.
    """
    model, diffusion, seeds, base_seed = payload
    return model.run(diffusion, seeds, rng=derive_seed(base_seed, model.name, trial))


def _simulate_trial_compiled(payload, trial: int) -> DiffusionResult:
    """Kernel-path trial body: the payload carries the compiled graph.

    Shipping the compact CSR form to workers replaces re-pickling the
    dict-of-dict graph per chunk; seed derivation is identical to
    :func:`_simulate_trial`, so results are bit-identical either way.
    """
    model, compiled, seeds, base_seed = payload
    return model.run_compiled(
        compiled, seeds, rng=derive_seed(base_seed, model.name, trial)
    )


def simulate_many_outcome(
    model: DiffusionModel,
    diffusion: SignedDiGraph,
    seeds: Dict[Node, NodeState],
    trials: int,
    base_seed: int = 0,
    runtime: Optional[RuntimeConfig] = None,
    recorder: Optional[Recorder] = None,
) -> TrialOutcome:
    """Like :func:`simulate_many`, returning the execution report too."""
    _check_trials(trials)
    runtime = runtime or SERIAL
    rec = resolve_recorder(recorder)
    cache = key_fn = None
    if runtime.cache_dir is not None:
        cache = TrialCache(runtime.cache_dir)
        world = stable_digest(
            "simulate_many",
            graph_digest(diffusion),
            model_digest(model),
            seeds_digest(seeds),
            base_seed,
        )
        key_fn = lambda trial: stable_digest(world, trial)  # noqa: E731
    if isinstance(model, (MFCModel, ICModel)):
        # Kernel-backed model: compile once in the parent and ship the
        # flat CSR form to workers instead of the dict-of-dict graph.
        fn = _simulate_trial_compiled
        payload = (model, compile_graph(diffusion), seeds, base_seed)
    else:
        fn = _simulate_trial
        payload = (model, diffusion, seeds, base_seed)
    with rec.span("mc.simulate_many", model=model.name, trials=trials):
        rec.incr("mc.trials", trials)
        return run_trials(
            fn,
            payload,
            range(trials),
            config=runtime,
            cache=cache,
            key_fn=key_fn,
            encode=DiffusionResult.to_json,
            decode=DiffusionResult.from_json,
            label=f"simulate:{model.name}",
            recorder=rec,
        )


def simulate_many(
    model: DiffusionModel,
    diffusion: SignedDiGraph,
    seeds: Dict[Node, NodeState],
    trials: int,
    base_seed: int = 0,
    runtime: Optional[RuntimeConfig] = None,
    recorder: Optional[Recorder] = None,
) -> List[DiffusionResult]:
    """Run ``trials`` independent cascades with derived deterministic seeds."""
    return simulate_many_outcome(
        model, diffusion, seeds, trials, base_seed, runtime, recorder
    ).results


def _batchable(model: DiffusionModel) -> bool:
    """Can ``model`` run through the batched kernel tier?

    Only the two kernel-backed cascade models qualify; anything else
    (SIR, third-party models, the reference loops the identity tests
    use) takes the per-trial fallback.
    """
    return isinstance(model, (MFCModel, ICModel))


def _run_batch_kernel(
    model: DiffusionModel,
    compiled,
    validated: Dict[Node, NodeState],
    trial_seeds: List[int],
    record_states: bool,
    recorder: Optional[Recorder] = None,
) -> CascadeBatchSummary:
    """One batched kernel call with ``model``'s parameters and backend."""
    if model.name == "mfc":
        return run_mfc_batch(
            compiled,
            validated,
            trial_seeds,
            alpha=model.alpha,
            allow_flips=model.allow_flips,
            max_rounds=model.max_rounds,
            namespace=model.name,
            record_states=record_states,
            recorder=recorder,
            backend=model.backend,
        )
    return run_ic_batch(
        compiled,
        validated,
        trial_seeds,
        propagate_signs=model.propagate_signs,
        namespace=model.name,
        record_states=record_states,
        recorder=recorder,
        backend=model.backend,
    )


def _batch_chunk(payload, spec) -> CascadeBatchSummary:
    """One worker-side slice of trials; module-level so pools can import it.

    The spec is a ``(start, stop)`` trial range and the per-trial seeds
    are derived *here* — ``derive_seed(base_seed, model.name, trial)``,
    the exact ``simulate_many`` chain — so chunked parallel execution
    reproduces the serial seed streams.
    """
    model, compiled, validated, base_seed, record_states = payload
    start, stop = spec
    trial_seeds = [
        derive_seed(base_seed, model.name, trial) for trial in range(start, stop)
    ]
    return _run_batch_kernel(model, compiled, validated, trial_seeds, record_states)


def _summarise_results(
    results: List[DiffusionResult],
    diffusion: SignedDiGraph,
    seeds: Dict[Node, NodeState],
    record_states: bool,
) -> CascadeBatchSummary:
    """Fold per-trial ``DiffusionResult``s into a batch summary.

    The fallback path for models the kernel tier cannot batch: flips come
    from the legacy event logs and ``attempts`` stays 0 (the reference
    simulators record successful activations, not raw draws).
    """
    nodes = tuple(sorted(diffusion.nodes(), key=repr))
    index = {node: position for position, node in enumerate(nodes)}
    infected: List[int] = []
    positive: List[int] = []
    negative: List[int] = []
    flips: List[int] = []
    rounds: List[int] = []
    rows: Optional[List[bytearray]] = [] if record_states else None
    for result in results:
        positives = negatives = 0
        row = bytearray(len(nodes)) if rows is not None else None
        for node, state in result.final_states.items():
            if state is NodeState.POSITIVE:
                positives += 1
                if row is not None:
                    row[index[node]] = 1
            elif state is NodeState.NEGATIVE:
                negatives += 1
                if row is not None:
                    row[index[node]] = 2
        positive.append(positives)
        negative.append(negatives)
        infected.append(positives + negatives)
        flips.append(sum(1 for event in result.events if event.was_flip))
        rounds.append(result.rounds)
        if rows is not None:
            rows.append(row)
    return CascadeBatchSummary(
        nodes=nodes,
        index=index,
        seeds=dict(seeds),
        trials=len(results),
        infected=infected,
        positive=positive,
        negative=negative,
        flips=flips,
        rounds=rounds,
        attempts=0,
        states=rows,
    )


def simulate_batch(
    model: DiffusionModel,
    diffusion: SignedDiGraph,
    seeds: Dict[Node, NodeState],
    trials: int,
    base_seed: int = 0,
    runtime: Optional[RuntimeConfig] = None,
    recorder: Optional[Recorder] = None,
    record_states: bool = False,
) -> CascadeBatchSummary:
    """Run ``trials`` cascades in one batched kernel call per chunk.

    The counting twin of :func:`simulate_many`: same derived per-trial
    seeds, but results come back as compact per-trial summary arrays
    (:class:`~repro.kernel.batch.CascadeBatchSummary`) instead of
    materialised event lists. On the bit-identical ``python`` backend the
    per-trial counts and (with ``record_states=True``) final states match
    ``simulate_many`` exactly; the ``numpy`` backend sweeps all trials as
    ``(T, n)`` matrices and is statistically identical.

    The fast path engages when the model is kernel-batchable and no trial
    cache is configured (the cache stores individual
    ``DiffusionResult``s, which a summary-only run never materialises);
    otherwise this falls back to :func:`simulate_many` plus a summarising
    pass, so callers can use it unconditionally. ``runtime.workers > 1``
    fans chunks of trials out over the process pool either way.
    """
    _check_trials(trials)
    runtime = runtime or SERIAL
    rec = resolve_recorder(recorder)
    with rec.span("mc.simulate_batch", model=model.name, trials=trials):
        rec.incr("mc.batch.trials", trials)
        reason = None
        if not _batchable(model):
            reason = "model"
        elif runtime.cache_dir is not None:
            reason = "cache"
        if reason is not None:
            rec.incr("mc.batch.fallback")
            rec.incr(f"mc.batch.fallback.{reason}")
            results = simulate_many(
                model, diffusion, seeds, trials, base_seed, runtime, rec
            )
            return _summarise_results(results, diffusion, seeds, record_states)
        rec.incr("mc.batch.fastpath")
        compiled = compile_graph(diffusion)
        validated = check_seeds_compiled(compiled, seeds)
        if runtime.parallel and trials > 1:
            size = runtime.resolve_chunk_size(trials)
            specs = [
                (start, min(start + size, trials)) for start in range(0, trials, size)
            ]
            outcome = run_trials(
                _batch_chunk,
                (model, compiled, validated, base_seed, record_states),
                specs,
                config=runtime,
                label=f"simulate_batch:{model.name}",
                recorder=rec,
            )
            return CascadeBatchSummary.concat(outcome.results)
        trial_seeds = [
            derive_seed(base_seed, model.name, trial) for trial in range(trials)
        ]
        return _run_batch_kernel(
            model, compiled, validated, trial_seeds, record_states, recorder=rec
        )


def _spread_from_summary(summary: CascadeBatchSummary) -> SpreadEstimate:
    """The :class:`SpreadEstimate` of a batch summary.

    Feeds ``mean``/``pstdev`` per-trial float lists — sizes for every
    trial, state fractions over non-empty cascades only. The kernel fast
    path and the ``simulate_many`` fallback summarise to the same counts,
    so on the bit-identical backend both return equal estimates (pinned
    by ``tests/unit/test_mc_batch.py`` and ``TestEstimateSpread``). Flip
    counts come from the kernel counters on the fast path and from the
    event logs on the fallback.
    """
    sizes = [float(count) for count in summary.infected]
    positive_fractions = []
    negative_fractions = []
    for positives, negatives in zip(summary.positive, summary.negative):
        infected = positives + negatives
        if infected:
            positive_fractions.append(positives / infected)
            negative_fractions.append(negatives / infected)
    return SpreadEstimate(
        mean_infected=mean(sizes),
        std_infected=pstdev(sizes) if len(sizes) > 1 else 0.0,
        mean_positive_fraction=mean(positive_fractions) if positive_fractions else 0.0,
        mean_negative_fraction=mean(negative_fractions) if negative_fractions else 0.0,
        mean_flips=mean(float(count) for count in summary.flips),
        mean_rounds=mean(float(count) for count in summary.rounds),
        trials=summary.trials,
    )


def estimate_spread(
    model: DiffusionModel,
    diffusion: SignedDiGraph,
    seeds: Dict[Node, NodeState],
    trials: int = 20,
    base_seed: int = 0,
    runtime: Optional[RuntimeConfig] = None,
    recorder: Optional[Recorder] = None,
) -> SpreadEstimate:
    """Estimate expected spread and state mix of ``model`` from ``seeds``.

    Convention: ``mean_positive_fraction`` averages over non-empty
    cascades only (see :class:`SpreadEstimate`); ``trials`` still counts
    every simulation.

    Every run goes through :func:`simulate_batch`: kernel-batchable
    models with no trial cache take its kernel fast path (per-trial
    counters, no event materialisation), everything else its
    ``simulate_many`` fallback; both build the same per-trial counts, so
    the estimate does not depend on the path.
    """
    rec = resolve_recorder(recorder)
    with rec.span("mc.estimate_spread", model=model.name, trials=trials):
        summary = simulate_batch(
            model, diffusion, seeds, trials, base_seed, runtime, rec
        )
    return _spread_from_summary(summary)
