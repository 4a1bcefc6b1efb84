"""The staged detection engine.

:class:`DetectionEngine` runs the cached steps of
:mod:`repro.pipeline.stages` (one :class:`~repro.pipeline.stages.Stage`
row each) as RID's entry points:

* :meth:`DetectionEngine.detect` — β-penalised model selection, or the
  exact-k knapsack when a ``budget`` is given;
* :meth:`DetectionEngine.detect_components` — the same over a component
  partition the caller already holds (the streaming layer);
* :meth:`DetectionEngine.forest` — the front half alone (prune,
  components, cascade trees), shared with the RID-Tree and RID-Positive
  baselines.

``detect`` and ``detect_components`` hand their components to one back
half (per-component arborescence, per-tree DP, cross-tree selection,
result assembly) that owns the budget-range rule.

Every step goes through one loop, :meth:`DetectionEngine._cached`:
in-process :class:`ArtifactCache` first, then the on-disk store under
``RuntimeConfig.cache_dir`` for rows with a codec, then compute. Stage
outputs are content-addressed (see :mod:`repro.pipeline.cache`), so
repeated detections over the same snapshot — budget sweeps, robustness
re-runs, CLI re-invocations with a cache dir — skip the Edmonds /
binarise / DP work already done; in particular the budget-mode OPT
curves are keyed *without* the budget, so an entire k-search sweep pays
for each tree's DP exactly once.

Infected components — and, downstream, individual cascade trees — are
independent work units by construction (Sec. III-E1), so the loop fans
the misses out through :func:`repro.runtime.executor.run_trials` when the
caller passes a ``RuntimeConfig(workers > 1)``. Results are
**bit-identical** to serial execution (and to the pre-refactor
sequential implementation, kept as a test oracle under
``tests/oracles/``): work units carry no shared state and the engine
reassembles outputs in input order.

Execution modes and observability:

* serial (default): compute runs inline with the caller's recorder —
  spans, traces and counters land exactly as in the sequential
  implementation;
* parallel: per-unit spans and counters are recorded into per-chunk
  worker recorders and merged commutatively (the PR-1 runtime
  machinery), so merged counter totals match serial runs; the fan-out
  additionally emits the standard ``runtime.*`` counters.

Structural counters (``rid.components``, ``rid.trees``, ...) are the
engine's job, outside the cached compute, so metric totals do not
depend on cache temperature; spans live inside the compute functions
and are only emitted when work actually happens.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, List, Optional, Sequence

from repro.codec import CacheCodecError
from repro.core.rid import TreeSelection
from repro.detectors.base import DetectionResult
from repro.errors import ConfigError, EmptyInfectionError
from repro.graphs.signed_digraph import SignedDiGraph
from repro.obs.recorder import Recorder, resolve_recorder
from repro.pipeline import stages
from repro.pipeline.cache import MISS, ArtifactCache
from repro.pipeline.stages import CurveArtifact, Stage
from repro.runtime.cache import TrialCache
from repro.runtime.config import SERIAL, RuntimeConfig
from repro.runtime.executor import run_trials


@dataclass
class EngineOutcome:
    """A detection result plus the per-tree diagnostics RID exposes."""

    result: DetectionResult
    selections: List[Any] = field(default_factory=list)


def _require_infected(infected: SignedDiGraph) -> None:
    if infected.number_of_nodes() == 0:
        raise EmptyInfectionError("infected network has no nodes")


class DetectionEngine:
    """Composable staged RID pipeline with caching and fan-out.

    Args:
        cache: in-process artifact cache; a fresh private
            :class:`ArtifactCache` by default. Pass a shared instance to
            pool artifacts across engines/detectors.
        runtime: default execution configuration for calls that do not
            pass their own ``runtime=``.

    Example:
        >>> from repro.core.rid import RIDConfig
        >>> from repro.pipeline import DetectionEngine
        >>> engine = DetectionEngine()
        >>> outcome = engine.detect(RIDConfig(), infected)  # doctest: +SKIP
        >>> outcome.result.initiators                       # doctest: +SKIP
    """

    def __init__(
        self,
        cache: Optional[ArtifactCache] = None,
        runtime: Optional[RuntimeConfig] = None,
    ) -> None:
        self.cache = cache if cache is not None else ArtifactCache()
        self.runtime = runtime if runtime is not None else SERIAL
        self.selection = stages.SelectionStage()

    # ------------------------------------------------------------------

    def _runtime(self, runtime: Optional[RuntimeConfig]) -> RuntimeConfig:
        runtime = runtime if runtime is not None else self.runtime
        runtime.validate()
        return runtime

    def _cached(
        self,
        stage: Stage,
        compute: Callable[..., Any],
        items: Sequence[SignedDiGraph],
        config: Any,
        rec: Recorder,
        runtime: RuntimeConfig,
    ) -> List[Any]:
        """``compute(config, item)`` for every item, through the cache.

        Each item's artifact comes from memory, else from the on-disk
        store (rows with a codec, when ``runtime.cache_dir`` is set),
        else from ``compute``: inline with ``rec``, or through
        :func:`run_trials` when ``runtime`` asks for workers and more
        than one item missed. Outputs come back in ``items`` order.
        """
        store = None
        if stage.codec is not None and runtime.cache_dir is not None:
            store = TrialCache(Path(runtime.cache_dir) / "pipeline")
        keys = [stage.key(config, item) for item in items]
        values: List[Any] = []
        for key in keys:
            value = self.cache.lookup(key)
            payload = store.load(key) if value is MISS and store is not None else None
            if payload is not None:
                try:
                    value = stage.codec[1](payload)
                except (CacheCodecError, KeyError, TypeError, ValueError):
                    pass  # corrupt or stale entry: recompute and overwrite it
                else:
                    self.cache.put(key, value)
            values.append(value)
        pending = [i for i, value in enumerate(values) if value is MISS]
        if runtime.parallel and len(pending) > 1:
            computed = run_trials(
                compute,
                config,
                [items[i] for i in pending],
                config=runtime,
                label=stage.label,
                recorder=rec,
            ).results
        else:
            computed = [compute(config, items[i], rec) for i in pending]
        for index, value in zip(pending, computed):
            values[index] = value
            self.cache.put(keys[index], value)
            if store is not None:
                try:
                    store.store(keys[index], stage.codec[0](value))
                except CacheCodecError:
                    pass  # node ids the codec cannot write: memory only
        return values

    # ------------------------------------------------------------------
    # Stage graph: prune -> components -> arborescences -> DP -> selection
    # ------------------------------------------------------------------

    def _components(
        self, config: Any, infected: SignedDiGraph, rec: Recorder, runtime: RuntimeConfig
    ) -> List[SignedDiGraph]:
        """Prune (when the config asks for it), then split into components."""
        if config.prune_inconsistent:
            edges_before = infected.number_of_edges()
            (pruned,) = self._cached(
                stages.PRUNE, stages.prune_graph, [infected], config, rec, runtime
            )
            if rec.enabled:
                rec.incr("rid.pruned_links", edges_before - pruned.number_of_edges())
        else:
            pruned = infected
        (components,) = self._cached(
            stages.COMPONENTS, stages.split_components, [pruned], config, rec, runtime
        )
        return components

    def _trees(
        self,
        config: Any,
        components: Sequence[SignedDiGraph],
        rec: Recorder,
        runtime: RuntimeConfig,
    ) -> List[SignedDiGraph]:
        """Every component's cascade trees, in component order."""
        per_component = self._cached(
            stages.ARBORESCENCE, stages.extract_component_trees, components, config, rec, runtime
        )
        trees = [tree for component_trees in per_component for tree in component_trees]
        if rec.enabled:
            rec.incr("rid.components", len(components))
            rec.incr("rid.trees", len(trees))
        return trees

    def _detect_partition(
        self,
        config: Any,
        components: Sequence[SignedDiGraph],
        budget: Optional[int],
        label: Optional[str],
        rec: Recorder,
        runtime: RuntimeConfig,
    ) -> EngineOutcome:
        """The back half both detect entry points share: trees, per-tree
        DP, cross-tree selection, result assembly.

        ``budget=None`` runs the β-penalised k search per tree and merges
        the selections; an integer budget solves each tree's OPT curve
        and splits the budget with the exact knapsack. A budget must lie
        in ``[trees, infected nodes]`` — ``[0, 0]`` for an empty
        partition.
        """
        trees = self._trees(config, components, rec, runtime)
        if budget is None:
            selections = self._cached(
                stages.TREE_DP_GREEDY, stages.greedy_tree_selection, trees, config, rec, runtime
            )
            initiators, objective = self.selection.merge_greedy(selections)
            if rec.enabled:
                rec.incr("rid.detected_initiators", len(initiators))
            method = f"rid(beta={config.beta})"
        else:
            total_nodes = sum(c.number_of_nodes() for c in components)
            if budget < len(trees) or budget > total_nodes:
                raise ConfigError(
                    f"budget must be in [{len(trees)}, {total_nodes}] "
                    f"({len(trees)} cascade trees were extracted), got {budget}"
                )
            curves: List[CurveArtifact] = self._cached(
                stages.TREE_DP_CURVE, stages.tree_curve, trees, config, rec, runtime
            )
            per_tree_budgets, objective = self.selection.knapsack(curves, budget, rec)
            if per_tree_budgets is None:
                raise ConfigError(
                    f"budget {budget} is infeasible for the extracted trees "
                    f"(per-tree caps too small)"
                )
            initiators = {}
            selections = []
            for curve, k in zip(curves, per_tree_budgets):
                solved = curve.results[k - 1]
                initiators.update(solved.initiators)
                selections.append(
                    TreeSelection(
                        tree_size=curve.tree_size,
                        k=k,
                        score=solved.score,
                        penalized_objective=solved.score,
                        initiators=solved.initiators,
                        scanned_k=len(curve.results),
                    )
                )
            method = f"rid(k={budget})"
        result = DetectionResult(
            method=label if label is not None else method,
            initiators=set(initiators),
            states=initiators,
            trees=trees,
            objective=objective,
        )
        return EngineOutcome(result=result, selections=selections)

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def forest(
        self,
        config: Any,
        infected: SignedDiGraph,
        *,
        recorder: Optional[Recorder] = None,
    ) -> List[SignedDiGraph]:
        """The front half alone: the snapshot's cascade trees.

        The ``prune`` step (when ``config.prune_inconsistent``), then
        ``components`` and per-component ``arborescence``, with the same caching as
        :meth:`detect`. Only ``config.score`` and
        ``config.prune_inconsistent`` matter here; the RID-Tree and
        RID-Positive baselines call it with exactly those two set.

        Raises:
            EmptyInfectionError: when ``infected`` has no nodes.
        """
        config.validate()
        rec, runtime = resolve_recorder(recorder), self._runtime(None)
        _require_infected(infected)
        return self._trees(config, self._components(config, infected, rec, runtime), rec, runtime)

    def detect(
        self,
        config: Any,
        infected: SignedDiGraph,
        *,
        budget: Optional[int] = None,
        label: Optional[str] = None,
        recorder: Optional[Recorder] = None,
        runtime: Optional[RuntimeConfig] = None,
    ) -> EngineOutcome:
        """Detection over the full stage graph.

        ``budget=None`` is β-penalised detection and raises
        :class:`EmptyInfectionError` on an empty snapshot. An integer
        ``budget`` is exact-k detection: per-tree OPT curves plus the
        cross-tree knapsack. An empty snapshot is a well-formed (if
        dull) budget-mode instance: zero cascade trees absorb exactly
        zero initiators, so ``budget=0`` returns an empty result and any
        other budget raises :class:`ConfigError`.
        """
        config.validate()
        rec, runtime = resolve_recorder(recorder), self._runtime(runtime)
        if budget is None:
            _require_infected(infected)
        components = self._components(config, infected, rec, runtime)
        return self._detect_partition(config, components, budget, label, rec, runtime)

    def detect_components(
        self,
        config: Any,
        components: Sequence[SignedDiGraph],
        *,
        budget: Optional[int] = None,
        label: Optional[str] = None,
        recorder: Optional[Recorder] = None,
        runtime: Optional[RuntimeConfig] = None,
    ) -> EngineOutcome:
        """Detection over a pre-split component partition.

        The streaming layer maintains the infected-component partition
        incrementally; this entry point skips the whole-graph ``prune``
        and ``components`` steps and goes straight to the per-component
        cached steps, so untouched components resolve to artifact-cache
        hits. Output is bit-identical to :meth:`detect` on the
        materialised snapshot as long as ``components`` equals the cold
        pipeline's split (same member sets, same live edges, same order).

        Unlike :meth:`detect`, an empty partition is a well-formed β-mode
        input here (an emptied infection mid-stream) and yields an empty
        result rather than :class:`EmptyInfectionError`.
        """
        config.validate()
        rec, runtime = resolve_recorder(recorder), self._runtime(runtime)
        return self._detect_partition(config, components, budget, label, rec, runtime)

