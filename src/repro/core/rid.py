"""The RID framework — the paper's full method (Sec. III-E).

Pipeline: infected connected components → maximum-likelihood cascade
trees (Chu-Liu/Edmonds) → binarisation with dummy nodes → per-tree
``OPT`` dynamic program with the β-penalised model selection

    k*, I*, S* = argmin_{k, I, S}  −OPT(u, I, S, k) + (k − 1)·β

which trades the explanation score of extra initiators against the
per-initiator penalty β. The paper grows k from 1 and stops at the
first k whose penalised objective fails to improve. RID charges β to
each initiator inside the tree DP instead, so one pass per tree
returns the exact optimum over every k >= 1 (at least one initiator
per tree). That is the paper's choice wherever ``OPT(k)`` is concave
in k and no other k ties it; ablation X2
(``benchmarks/test_ablation_k_search``) compares the two.

:class:`RID` runs that pipeline as the cached steps of
:mod:`repro.pipeline.stages` (one :class:`~repro.pipeline.stages.Stage`
row each), through one loop, ``RID._cached``: the instance's in-process
:class:`~repro.pipeline.cache.ArtifactCache` (``rid.cache``) first,
then the on-disk store under ``RuntimeConfig.cache_dir`` for rows with
a codec, then compute. Step outputs are content-addressed, so repeated
detections on one instance — budget sweeps, robustness re-runs, warm
serve and stream detectors — skip the Edmonds / binarise / DP work
already done; the budget-mode OPT curves are keyed *without* the
budget, so a k-search sweep pays for each tree's DP once. Entry points:

* :meth:`RID.detect` — β-penalised model selection;
* :meth:`RID.detect_with_budget` — exactly ``budget`` initiators, by an
  exact knapsack over the per-tree OPT curves;
* :meth:`RID.detect_components` — either mode over a component
  partition the caller already holds (:mod:`repro.stream`);
* :meth:`RID.forest` — the front half alone (prune, components,
  cascade trees), which the RID-Tree and RID-Positive baselines call.

Infected components and cascade trees are independent work units
(Sec. III-E1), so the loop fans cache misses out through
:func:`repro.runtime.executor.run_trials` when a
``RuntimeConfig(workers > 1)`` is passed. Results are bit-identical to
serial runs and to the pre-refactor sequential implementation, kept as
a test oracle in ``tests/oracles/rid_reference.py``: work units carry
no shared state and outputs are reassembled in input order. Serially,
compute runs inline with the caller's recorder; in parallel, per-unit
spans and counters go to per-chunk worker recorders and merge
commutatively, plus the standard ``runtime.*`` counters. Structural
counters (``rid.components``, ``rid.trees``, ...) are recorded outside
the cached compute, so metric totals do not depend on cache
temperature; spans are emitted only when work actually happens.

``binarize_cascade_tree`` and ``TreeDPKernel`` (the iterative,
recursion-free DP of :mod:`repro.kernel.tree_dp`) are imported here and
looked up dynamically by the pipeline stages — monkeypatching them on
this module (as the DP stub tests do) affects every entry point. The
loop likewise looks every compute function up on
:mod:`repro.pipeline.stages` at call time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.codec import CacheCodecError
from repro.detectors.base import DetectionResult, Detector
from repro.core.binarize import binarize_cascade_tree  # noqa: F401  (pipeline seam)
from repro.errors import ConfigError, EmptyInfectionError
from repro.graphs.signed_digraph import SignedDiGraph
from repro.kernel.tree_dp import TreeDPKernel  # noqa: F401  (pipeline seam)
from repro.obs.recorder import Recorder, resolve_recorder
from repro.pipeline import stages
from repro.pipeline.cache import MISS, ArtifactCache
from repro.runtime.cache import TrialCache
from repro.runtime.config import SERIAL, RuntimeConfig
from repro.runtime.executor import run_trials
from repro.types import Node, NodeState


@dataclass
class RIDConfig:
    """Hyper-parameters of the RID pipeline.

    Attributes:
        alpha: MFC asymmetric boosting coefficient used in the
            likelihood (paper experiments: 3).
        beta: per-extra-initiator penalty (paper sweeps 0..1; headline
            settings 0.09 and 0.1).
        score: arborescence score transform, ``'log'`` or ``'raw'``.
        inconsistent_value: ``g`` value for sign-inconsistent links
            (paper equation: 0).
        prune_inconsistent: drop sign-inconsistent links before component
            detection and tree extraction (Sec. III-E1's "pruned"
            network; such links cannot be activation links).
    """

    alpha: float = 3.0
    beta: float = 0.1
    score: str = "log"
    inconsistent_value: float = 0.0
    prune_inconsistent: bool = True

    def validate(self) -> None:
        """Raise :class:`ConfigError` on out-of-range settings."""
        for name in ("alpha", "beta"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if self.alpha < 1.0:
            raise ConfigError(f"alpha must be >= 1, got {self.alpha}")
        if self.beta < 0.0:
            raise ConfigError(f"beta must be >= 0, got {self.beta}")
        if self.score not in ("log", "raw"):
            raise ConfigError(f"score must be 'log' or 'raw', got {self.score!r}")


@dataclass
class TreeSelection:
    """Per-tree outcome of RID's selection, in either mode.

    Attributes:
        tree_size: the tree's real-node count.
        k: initiators chosen in this tree.
        score: ``OPT(k)``, the chosen placement's explanation score.
        penalized_objective: ``score − (k − 1)·β`` in β mode; ``score``
            in budget mode.
        initiators: the chosen initiators and their inferred states.
        scanned_k: budgets the tree's DP solved: the curve length in
            budget mode, and 0 in β mode, whose one penalised pass
            scans no budget.
    """

    tree_size: int
    k: int
    score: float
    penalized_objective: float
    initiators: Dict[Node, NodeState]
    scanned_k: int


def _require_infected(infected: SignedDiGraph) -> None:
    if infected.number_of_nodes() == 0:
        raise EmptyInfectionError("infected network has no nodes")


class RID(Detector):
    """Rumor Initiator Detector over infected signed networks.

    Args:
        config: pipeline hyper-parameters (validated eagerly, and again
            on every call).
        runtime: default :class:`~repro.runtime.config.RuntimeConfig`
            for per-component/per-tree fan-out and the on-disk artifact
            store; individual calls may override it.

    Attributes:
        cache: the instance's in-process :class:`ArtifactCache`; its
            artifacts are keyed by graph content and the config fields
            each step reads.
        last_selections: per-tree diagnostics of the last detection.

    Example:
        >>> detector = RID(RIDConfig(alpha=3.0, beta=0.1))
        >>> result = detector.detect(infected_network)   # doctest: +SKIP
        >>> result.initiators, result.states             # doctest: +SKIP
    """

    name = "rid"

    def __init__(
        self,
        config: Optional[RIDConfig] = None,
        *,
        runtime: Optional[RuntimeConfig] = None,
    ) -> None:
        self.config = config or RIDConfig()
        self.config.validate()
        self.cache = ArtifactCache()
        self.runtime = runtime if runtime is not None else SERIAL
        self.last_selections: List[TreeSelection] = []

    # ------------------------------------------------------------------
    # The cached-step loop and the two halves of the pipeline
    # ------------------------------------------------------------------

    def _runtime(self, runtime: Optional[RuntimeConfig]) -> RuntimeConfig:
        runtime = runtime if runtime is not None else self.runtime
        runtime.validate()
        return runtime

    def _cached(
        self,
        stage: stages.Stage,
        compute: Callable[..., Any],
        items: Sequence[SignedDiGraph],
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
        config = self.config
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

    def _components(
        self, infected: SignedDiGraph, rec: Recorder, runtime: RuntimeConfig
    ) -> List[SignedDiGraph]:
        """Prune (when the config asks for it), then split into components."""
        if self.config.prune_inconsistent:
            edges_before = infected.number_of_edges()
            (pruned,) = self._cached(
                stages.PRUNE, stages.prune_graph, [infected], rec, runtime
            )
            if rec.enabled:
                rec.incr("rid.pruned_links", edges_before - pruned.number_of_edges())
        else:
            pruned = infected
        (components,) = self._cached(
            stages.COMPONENTS, stages.split_components, [pruned], rec, runtime
        )
        return components

    def _trees(
        self, components: Sequence[SignedDiGraph], rec: Recorder, runtime: RuntimeConfig
    ) -> List[SignedDiGraph]:
        """Every component's cascade trees, in component order."""
        per_component = self._cached(
            stages.ARBORESCENCE, stages.extract_component_trees, components, rec, runtime
        )
        trees = [tree for component_trees in per_component for tree in component_trees]
        if rec.enabled:
            rec.incr("rid.components", len(components))
            rec.incr("rid.trees", len(trees))
        return trees

    def _detect_partition(
        self,
        components: Sequence[SignedDiGraph],
        budget: Optional[int],
        label: Optional[str],
        rec: Recorder,
        runtime: RuntimeConfig,
    ) -> DetectionResult:
        """The back half every detection shares: trees, per-tree DP,
        cross-tree selection, result assembly.

        ``budget=None`` runs the β-penalised selection per tree and merges
        the selections; an integer budget solves each tree's OPT curve
        and splits the budget with the exact knapsack. A budget must lie
        in ``[trees, infected nodes]`` — ``[0, 0]`` for an empty
        partition.
        """
        config = self.config
        trees = self._trees(components, rec, runtime)
        if budget is None:
            selections = self._cached(
                stages.TREE_DP_GREEDY, stages.greedy_tree_selection, trees, rec, runtime
            )
            initiators, objective = stages.SelectionStage().merge_greedy(selections)
            if rec.enabled:
                rec.incr("rid.detected_initiators", len(initiators))
            method = f"{self.name}(beta={config.beta})"
        else:
            total_nodes = sum(c.number_of_nodes() for c in components)
            if budget < len(trees) or budget > total_nodes:
                raise ConfigError(
                    f"budget must be in [{len(trees)}, {total_nodes}] "
                    f"({len(trees)} cascade trees were extracted), got {budget}"
                )
            curves: List[stages.CurveArtifact] = self._cached(
                stages.TREE_DP_CURVE, stages.tree_curve, trees, rec, runtime
            )
            per_tree_budgets, objective = stages.SelectionStage().knapsack(
                curves, budget, rec
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
            method = f"{self.name}(k={budget})"
        self.last_selections = selections
        return DetectionResult(
            method=label if label is not None else method,
            initiators=set(initiators),
            states=initiators,
            trees=trees,
            objective=objective,
        )

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def detect(
        self,
        infected: SignedDiGraph,
        recorder: Optional[Recorder] = None,
        *,
        runtime: Optional[RuntimeConfig] = None,
    ) -> DetectionResult:
        """Full RID detection on an infected diffusion network.

        Stage spans recorded on the active recorder: ``rid.prune`` →
        ``rid.components`` → per-component ``rid.extract_trees`` →
        per-tree ``rid.binarize`` → ``rid.tree_dp``, wrapped in one
        ``rid.detect`` span (``docs/architecture.md`` maps spans onto
        pipeline stages; ``docs/observability.md`` onto paper sections).

        Args:
            infected: the infected diffusion network ``G_I``.
            recorder: observability sink (ambient recorder by default).
            runtime: fan-out/caching override for this call
                (``workers > 1`` parallelises across components and
                trees; results are bit-identical to serial runs).

        Raises:
            EmptyInfectionError: when ``infected`` has no nodes.
        """
        rec = resolve_recorder(recorder)
        with rec.span("rid.detect", nodes=infected.number_of_nodes()):
            self.config.validate()
            runtime = self._runtime(runtime)
            _require_infected(infected)
            components = self._components(infected, rec, runtime)
            return self._detect_partition(components, None, None, rec, runtime)

    def detect_with_budget(
        self,
        infected: SignedDiGraph,
        budget: int,
        *,
        recorder: Optional[Recorder] = None,
        runtime: Optional[RuntimeConfig] = None,
    ) -> DetectionResult:
        """k-ISOMIT: detect exactly ``budget`` initiators (known k).

        The paper's Sec. III-D problem statement fixes the initiator
        count; this entry point solves it across the whole snapshot by
        (a) solving each cascade tree's DP for every feasible per-tree
        budget and (b) distributing the global budget across trees with
        an exact knapsack over the per-tree ``OPT`` curves. No β is
        involved — the count is given, not penalised.

        Args:
            infected: the infected diffusion network ``G_I``.
            budget: the exact number of initiators to report. Must be at
                least the number of extracted trees (every tree needs
                its root explained) and at most the infected-node count.
                A snapshot with zero infected nodes is a well-formed
                instance: zero cascade trees absorb exactly ``budget=0``,
                which returns an empty result.
            recorder: observability sink (ambient recorder by default).
            runtime: fan-out/caching override for this call.

        Raises:
            ConfigError: for a budget outside the feasible range, or
                ``None`` (which would mean β mode).
        """
        if budget is None:
            raise ConfigError(
                f"{self.name}.detect_with_budget() needs an initiator budget "
                f"(budget=...)"
            )
        rec = resolve_recorder(recorder)
        with rec.span("rid.detect_with_budget", budget=budget):
            self.config.validate()
            runtime = self._runtime(runtime)
            components = self._components(infected, rec, runtime)
            return self._detect_partition(components, budget, None, rec, runtime)

    def detect_components(
        self,
        components: Sequence[SignedDiGraph],
        *,
        budget: Optional[int] = None,
        label: Optional[str] = None,
        recorder: Optional[Recorder] = None,
        runtime: Optional[RuntimeConfig] = None,
    ) -> DetectionResult:
        """Detection over a pre-split component partition.

        The streaming layer maintains the infected-component partition
        incrementally; this entry point skips the whole-graph ``prune``
        and ``components`` steps and goes straight to the per-component
        cached steps, so untouched components resolve to artifact-cache
        hits. Output is bit-identical to :meth:`detect` (``budget=None``)
        or :meth:`detect_with_budget` on the materialised snapshot as
        long as ``components`` equals the cold pipeline's split (same
        member sets, same live edges, same order). ``label`` replaces
        the result's method name.

        Unlike :meth:`detect`, an empty partition is a well-formed β-mode
        input here (an emptied infection mid-stream) and yields an empty
        result rather than :class:`EmptyInfectionError`. No ``rid.*``
        span wraps the call; the caller's span does.
        """
        self.config.validate()
        rec, runtime = resolve_recorder(recorder), self._runtime(runtime)
        return self._detect_partition(components, budget, label, rec, runtime)

    def forest(
        self, infected: SignedDiGraph, *, recorder: Optional[Recorder] = None
    ) -> List[SignedDiGraph]:
        """The front half alone: the snapshot's cascade trees.

        The ``prune`` step (when ``config.prune_inconsistent``), then
        ``components`` and per-component ``arborescence``, with the same
        caching as :meth:`detect`, on the instance's default runtime.
        Only ``config.score`` and ``config.prune_inconsistent`` matter
        here; the RID-Tree and RID-Positive baselines each hold a RID
        with exactly those two set.

        Raises:
            EmptyInfectionError: when ``infected`` has no nodes.
        """
        self.config.validate()
        rec, runtime = resolve_recorder(recorder), self._runtime(None)
        _require_infected(infected)
        return self._trees(self._components(infected, rec, runtime), rec, runtime)
