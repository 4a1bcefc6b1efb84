"""The staged detection engine.

:class:`DetectionEngine` composes the concrete stages of
:mod:`repro.pipeline.stages` into RID's entry points:

* :meth:`DetectionEngine.detect` — β-penalised model selection, or the
  exact-k knapsack when a ``budget`` is given;
* :meth:`DetectionEngine.detect_components` — the same over a component
  partition the caller already holds (the streaming layer);
* :meth:`DetectionEngine.forest` — the front half alone (prune,
  components, cascade trees), shared with the RID-Tree and RID-Positive
  baselines.

``detect`` and ``detect_components`` hand their components to one back
half (per-component Arborescence, per-tree DP, cross-tree selection,
result assembly) that owns the budget-range rule.

Infected components — and, downstream, individual cascade trees — are
independent work units by construction (Sec. III-E1), so the engine fans
them out through :func:`repro.runtime.executor.run_trials` when the
caller passes a ``RuntimeConfig(workers > 1)``. Results are
**bit-identical** to serial execution (and to the pre-refactor
sequential implementation, kept as a test oracle under
``tests/oracles/``): work units carry no shared state and the engine
reassembles outputs in input order.

Stage outputs are content-addressed (see :mod:`repro.pipeline.cache`)
and cached in the engine's in-process :class:`ArtifactCache`, plus
optionally on disk via ``RuntimeConfig.cache_dir``. Repeated detections
over the same snapshot — budget sweeps, robustness re-runs, CLI
re-invocations with a cache dir — skip the Edmonds / binarise / DP work
already done; in particular the budget-mode OPT curves are keyed
*without* the budget, so an entire k-search sweep pays for each tree's
DP exactly once.

Execution modes and observability:

* serial (default): stages run inline with the caller's recorder —
  spans, traces and counters land exactly as in the sequential
  implementation;
* parallel: per-unit spans and counters are recorded into per-chunk
  worker recorders and merged commutatively (the PR-1 runtime
  machinery), so merged counter totals match serial runs; the fan-out
  additionally emits the standard ``runtime.*`` counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, List, Optional, Sequence

from repro.core.rid import TreeSelection
from repro.detectors.base import DetectionResult
from repro.errors import ConfigError, EmptyInfectionError
from repro.graphs.signed_digraph import SignedDiGraph
from repro.obs.recorder import Recorder, resolve_recorder
from repro.pipeline.cache import MISS, ArtifactCache
from repro.pipeline.stage import Stage, StageContext
from repro.pipeline.stages import (
    ArborescenceStage,
    ComponentSplitStage,
    CurveArtifact,
    PruneStage,
    SelectionStage,
    TreeDPStage,
    extract_component_trees,
    greedy_tree_selection,
    tree_curve,
)
from repro.runtime.cache import TrialCache, graph_digest
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


# ---------------------------------------------------------------------------
# Pool-worker bodies (module-level so they pickle by reference). Each
# resolves the ambient recorder installed by the runtime's chunk runner,
# so worker-side spans/counters merge back deterministically.
# ---------------------------------------------------------------------------


def _component_trees_unit(config: Any, component: SignedDiGraph) -> List[SignedDiGraph]:
    return extract_component_trees(component, config.score)


def _tree_dp_unit(payload: Any, tree: SignedDiGraph) -> Any:
    config, mode = payload
    if mode == "greedy":
        return greedy_tree_selection(config, tree)
    return tree_curve(config, tree)


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
        self.prune = PruneStage()
        self.split = ComponentSplitStage()
        self.arborescence = ArborescenceStage()
        self.greedy_dp = TreeDPStage("greedy")
        self.curve_dp = TreeDPStage("curve")
        self.selection = SelectionStage()

    # ------------------------------------------------------------------

    def cache_stats(self) -> dict:
        """In-process artifact-cache hit/miss statistics."""
        return self.cache.stats()

    def _context(
        self,
        config: Any,
        recorder: Optional[Recorder],
        runtime: Optional[RuntimeConfig],
    ) -> StageContext:
        runtime = runtime if runtime is not None else self.runtime
        runtime.validate()
        store = None
        if runtime.cache_dir is not None:
            store = TrialCache(Path(runtime.cache_dir) / "pipeline")
        return StageContext(
            config=config,
            recorder=resolve_recorder(recorder),
            cache=self.cache,
            store=store,
            runtime=runtime,
        )

    def _batched(
        self,
        ctx: StageContext,
        stage: Stage,
        items: Sequence[Any],
        payload: Any,
        worker: Callable[[Any, Any], Any],
        label: str,
    ) -> List[Any]:
        """Run ``stage`` over ``items`` with caching and optional fan-out.

        Cache hits are resolved up front; only misses are computed —
        inline (serial, full trace fidelity) or via the process pool
        when the context requests ``workers > 1`` and more than one unit
        is pending. Outputs come back in ``items`` order either way.
        """
        keys = [stage.cache_key(ctx, graph_digest(item)) for item in items]
        values: List[Any] = [stage.lookup(ctx, key) for key in keys]
        pending = [i for i, value in enumerate(values) if value is MISS]
        if not pending:
            return values
        if ctx.runtime.parallel and len(pending) > 1:
            outcome = run_trials(
                worker,
                payload,
                [items[i] for i in pending],
                config=RuntimeConfig(
                    workers=ctx.runtime.workers, chunk_size=ctx.runtime.chunk_size
                ),
                label=label,
                recorder=ctx.recorder,
            )
            computed = outcome.results
        else:
            computed = [stage.run(ctx, items[i]) for i in pending]
        for index, value in zip(pending, computed):
            values[index] = value
            stage.commit(ctx, keys[index], value)
        return values

    # ------------------------------------------------------------------
    # Stage graph: prune -> components -> arborescences -> DP -> selection
    # ------------------------------------------------------------------

    def _components(self, ctx: StageContext, infected: SignedDiGraph) -> List[SignedDiGraph]:
        """Prune (when the config asks for it), then split into components."""
        rec = ctx.recorder
        if ctx.config.prune_inconsistent:
            edges_before = infected.number_of_edges()
            pruned = self.prune.execute(ctx, infected, graph_digest(infected))
            if rec.enabled:
                rec.incr("rid.pruned_links", edges_before - pruned.number_of_edges())
        else:
            pruned = infected
        return self.split.execute(ctx, pruned, graph_digest(pruned))

    def _trees(
        self, ctx: StageContext, components: Sequence[SignedDiGraph]
    ) -> List[SignedDiGraph]:
        """Every component's cascade trees, in component order."""
        per_component = self._batched(
            ctx,
            self.arborescence,
            components,
            payload=ctx.config,
            worker=_component_trees_unit,
            label="rid.arborescence",
        )
        trees = [tree for component_trees in per_component for tree in component_trees]
        rec = ctx.recorder
        if rec.enabled:
            rec.incr("rid.components", len(components))
            rec.incr("rid.trees", len(trees))
        return trees

    def _detect_partition(
        self,
        ctx: StageContext,
        components: Sequence[SignedDiGraph],
        budget: Optional[int],
        label: Optional[str],
    ) -> EngineOutcome:
        """The back half both detect entry points share: trees, per-tree
        DP, cross-tree selection, result assembly.

        ``budget=None`` runs the β-penalised k search per tree and merges
        the selections; an integer budget solves each tree's OPT curve
        and splits the budget with the exact knapsack. A budget must lie
        in ``[trees, infected nodes]`` — ``[0, 0]`` for an empty
        partition.
        """
        config = ctx.config
        rec = ctx.recorder
        trees = self._trees(ctx, components)
        if budget is None:
            selections = self._batched(
                ctx,
                self.greedy_dp,
                trees,
                payload=(config, "greedy"),
                worker=_tree_dp_unit,
                label="rid.tree_dp",
            )
            initiators, objective = self.selection.merge_greedy(ctx, selections)
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
            curves: List[CurveArtifact] = self._batched(
                ctx,
                self.curve_dp,
                trees,
                payload=(config, "curve"),
                worker=_tree_dp_unit,
                label="rid.tree_dp",
            )
            per_tree_budgets, objective = self.selection.knapsack(ctx, curves, budget)
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

        Prune (when ``config.prune_inconsistent``), ComponentSplit, then
        per-component Arborescence, with the same caching as
        :meth:`detect`. Only ``config.score`` and
        ``config.prune_inconsistent`` matter here; the RID-Tree and
        RID-Positive baselines call it with exactly those two set.

        Raises:
            EmptyInfectionError: when ``infected`` has no nodes.
        """
        config.validate()
        ctx = self._context(config, recorder, None)
        _require_infected(infected)
        return self._trees(ctx, self._components(ctx, infected))

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
        ctx = self._context(config, recorder, runtime)
        if budget is None:
            _require_infected(infected)
        return self._detect_partition(
            ctx, self._components(ctx, infected), budget, label
        )

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
        incrementally; this entry point skips the whole-graph Prune and
        ComponentSplit stages and goes straight to the per-component
        cached stages, so untouched components resolve to artifact-cache
        hits. Output is bit-identical to :meth:`detect` on the
        materialised snapshot as long as ``components`` equals the cold
        pipeline's split (same member sets, same live edges, same order).

        Unlike :meth:`detect`, an empty partition is a well-formed β-mode
        input here (an emptied infection mid-stream) and yields an empty
        result rather than :class:`EmptyInfectionError`.
        """
        config.validate()
        ctx = self._context(config, recorder, runtime)
        return self._detect_partition(ctx, components, budget, label)

