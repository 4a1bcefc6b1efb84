"""The staged detection engine.

:class:`DetectionEngine` composes the concrete stages of
:mod:`repro.pipeline.stages` into RID's two entry points:

* :meth:`DetectionEngine.detect` — β-penalised model selection;
* :meth:`DetectionEngine.detect_with_budget` — exact-k knapsack mode.

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

from repro.detectors.base import DetectionResult
from repro.errors import ConfigError, EmptyInfectionError
from repro.graphs.signed_digraph import SignedDiGraph
from repro.obs.recorder import Recorder, resolve_recorder
from repro.pipeline.cache import MISS, ArtifactCache
from repro.pipeline.stage import Stage, StageContext
from repro.pipeline.stages import (
    ArborescenceStage,
    BinarizeStage,
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
        self.binarize = BinarizeStage()
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
    # Stage graph, front half: prune -> components -> arborescences
    # ------------------------------------------------------------------

    def extract_forest(self, ctx: StageContext, infected: SignedDiGraph) -> List[SignedDiGraph]:
        """Prune, split into components, extract each component's trees.

        Equivalent to
        :func:`repro.core.cascade_forest.extract_cascade_forest` (same
        tree contents and order, same counters) with per-component
        caching and fan-out.
        """
        if infected.number_of_nodes() == 0:
            raise EmptyInfectionError("infected network has no nodes")
        rec = ctx.recorder
        if ctx.config.prune_inconsistent:
            edges_before = infected.number_of_edges()
            pruned = self.prune.execute(ctx, infected, graph_digest(infected))
            if rec.enabled:
                rec.incr("rid.pruned_links", edges_before - pruned.number_of_edges())
        else:
            pruned = infected
        pieces = self.split.execute(ctx, pruned, graph_digest(pruned))
        return self.forest_from_components(ctx, pieces)

    def forest_from_components(
        self, ctx: StageContext, components: Sequence[SignedDiGraph]
    ) -> List[SignedDiGraph]:
        """Extract every component's cascade trees (cached, fan-out).

        The back half of :meth:`extract_forest`, exposed for callers
        that already hold the component partition — the streaming layer
        (:mod:`repro.stream`) maintains it incrementally and skips the
        whole-graph Prune/ComponentSplit passes entirely.
        """
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

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def detect(
        self,
        config: Any,
        infected: SignedDiGraph,
        *,
        label: Optional[str] = None,
        recorder: Optional[Recorder] = None,
        runtime: Optional[RuntimeConfig] = None,
    ) -> EngineOutcome:
        """β-penalised detection over the full stage graph."""
        config.validate()
        ctx = self._context(config, recorder, runtime)
        trees = self.extract_forest(ctx, infected)
        return self._greedy_outcome(ctx, config, trees, label)

    def _greedy_outcome(
        self,
        ctx: StageContext,
        config: Any,
        trees: List[SignedDiGraph],
        label: Optional[str],
    ) -> EngineOutcome:
        """Back half of β-mode detection: per-tree DP + greedy merge."""
        rec = ctx.recorder
        selections = self._batched(
            ctx,
            self.greedy_dp,
            trees,
            payload=(config, "greedy"),
            worker=_tree_dp_unit,
            label="rid.tree_dp",
        )
        initiators, total_objective = self.selection.run(ctx, ("greedy", selections))
        if rec.enabled:
            rec.incr("rid.detected_initiators", len(initiators))
        result = DetectionResult(
            method=label if label is not None else f"rid(beta={config.beta})",
            initiators=set(initiators),
            states=initiators,
            trees=trees,
            objective=total_objective,
        )
        return EngineOutcome(result=result, selections=list(selections))

    def detect_with_budget(
        self,
        config: Any,
        infected: SignedDiGraph,
        budget: int,
        *,
        label: Optional[str] = None,
        recorder: Optional[Recorder] = None,
        runtime: Optional[RuntimeConfig] = None,
    ) -> EngineOutcome:
        """Exact-k detection: per-tree OPT curves + cross-tree knapsack.

        A snapshot with zero infected nodes is a well-formed (if dull)
        instance: zero cascade trees can absorb exactly zero initiators,
        so ``budget=0`` returns an empty :class:`DetectionResult` and any
        other budget raises :class:`ConfigError` — it never crashes with
        :class:`EmptyInfectionError` the way the pre-refactor code did.
        """
        config.validate()
        ctx = self._context(config, recorder, runtime)
        if infected.number_of_nodes() == 0:
            if budget != 0:
                raise ConfigError(
                    "budget must be in [0, 0] (the infected network is empty), "
                    f"got {budget}"
                )
            return self._empty_budget_outcome(label)
        trees = self.extract_forest(ctx, infected)
        return self._budget_outcome(
            ctx, config, trees, budget, infected.number_of_nodes(), label
        )

    def _empty_budget_outcome(self, label: Optional[str]) -> EngineOutcome:
        result = DetectionResult(
            method=label if label is not None else "rid(k=0)",
            initiators=set(),
            states={},
            trees=[],
            objective=0.0,
        )
        return EngineOutcome(result=result, selections=[])

    def _budget_outcome(
        self,
        ctx: StageContext,
        config: Any,
        trees: List[SignedDiGraph],
        budget: int,
        total_nodes: int,
        label: Optional[str],
    ) -> EngineOutcome:
        """Back half of budget mode: per-tree curves + cross-tree knapsack."""
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
        per_tree_budgets, best_total = self.selection.run(
            ctx, ("budget", (curves, budget))
        )
        if per_tree_budgets is None:
            raise ConfigError(
                f"budget {budget} is infeasible for the extracted trees "
                f"(per-tree caps too small)"
            )
        from repro.core.rid import TreeSelection  # lazy: rid imports this module

        initiators: dict = {}
        selections: List[Any] = []
        for t, k in enumerate(per_tree_budgets):
            solved = curves[t].results[k - 1]
            initiators.update(solved.initiators)
            selections.append(
                TreeSelection(
                    tree_size=curves[t].tree_size,
                    k=k,
                    score=solved.score,
                    penalized_objective=solved.score,
                    initiators=solved.initiators,
                    scanned_k=len(curves[t].results),
                )
            )
        result = DetectionResult(
            method=label if label is not None else f"rid(k={budget})",
            initiators=set(initiators),
            states=initiators,
            trees=trees,
            objective=best_total,
        )
        return EngineOutcome(result=result, selections=selections)

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
        hits. Output is bit-identical to :meth:`detect` /
        :meth:`detect_with_budget` on the materialised snapshot as long
        as ``components`` equals the cold pipeline's split (same member
        sets, same live edges, same order).

        Unlike :meth:`detect`, an empty partition is a well-formed input
        here (an emptied infection mid-stream) and yields an empty
        result rather than :class:`EmptyInfectionError`.
        """
        config.validate()
        ctx = self._context(config, recorder, runtime)
        if not components:
            if budget is None:
                result = DetectionResult(
                    method=label if label is not None else f"rid(beta={config.beta})",
                    initiators=set(),
                    states={},
                    trees=[],
                    objective=0.0,
                )
                return EngineOutcome(result=result, selections=[])
            if budget != 0:
                raise ConfigError(
                    "budget must be in [0, 0] (the infected network is empty), "
                    f"got {budget}"
                )
            return self._empty_budget_outcome(label)
        trees = self.forest_from_components(ctx, components)
        if budget is None:
            return self._greedy_outcome(ctx, config, trees, label)
        total_nodes = sum(c.number_of_nodes() for c in components)
        return self._budget_outcome(ctx, config, trees, budget, total_nodes, label)
