"""The RID framework — the paper's full method (Sec. III-E).

Pipeline: infected connected components → maximum-likelihood cascade
trees (Chu-Liu/Edmonds) → binarisation with dummy nodes → per-tree
``OPT`` dynamic program with the β-penalised model selection

    k*, I*, S* = argmin_{k, I, S}  −OPT(u, I, S, k) + (k − 1)·β

which trades the explanation score of extra initiators against the
per-initiator penalty β. Following the paper, k is grown from 1 and the
search stops at the first k whose penalised objective fails to improve
(``k_strategy='greedy'``); ``k_strategy='exhaustive'`` scans every k up
to the tree size (the ablation in ``benchmarks/test_ablation_k_search``
quantifies the gap).

Execution lives in the staged :class:`~repro.pipeline.engine.DetectionEngine`
(see ``docs/architecture.md``): every infected component and cascade
tree is an independent work unit, fanned out over the process-pool
runtime when a ``RuntimeConfig(workers > 1)`` is passed and cached
content-addressed across calls. :class:`RID` is the detector-protocol
wrapper — each instance owns one engine (and therefore one artifact
cache), so repeated detections on the same instance (budget sweeps,
robustness re-runs) skip work already done. The pre-refactor sequential
implementation is preserved verbatim as a test oracle under
``tests/oracles/`` and pinned bit-identical by the pipeline-identity
gate.

``binarize_cascade_tree`` and ``TreeDPKernel`` (the iterative,
recursion-free DP of :mod:`repro.kernel.tree_dp`) are imported here and
looked up dynamically by the pipeline stages — monkeypatching them on
this module (as the DP stub tests do) affects every entry point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.detectors.base import DetectionResult, Detector
from repro.core.binarize import binarize_cascade_tree  # noqa: F401  (pipeline seam)
from repro.errors import ConfigError
from repro.graphs.signed_digraph import SignedDiGraph
from repro.kernel.tree_dp import TreeDPKernel  # noqa: F401  (pipeline seam)
from repro.obs.recorder import Recorder, resolve_recorder
from repro.runtime.config import RuntimeConfig
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
        k_strategy: ``'greedy'`` (paper's early-stopping scan) or
            ``'exhaustive'``.
        max_k_per_tree: optional hard cap on initiators per cascade tree
            (None = tree size).
        inconsistent_value: ``g`` value for sign-inconsistent links
            (paper equation: 0).
        prune_inconsistent: drop sign-inconsistent links before component
            detection and tree extraction (Sec. III-E1's "pruned"
            network; such links cannot be activation links).
    """

    alpha: float = 3.0
    beta: float = 0.1
    score: str = "log"
    k_strategy: str = "greedy"
    max_k_per_tree: Optional[int] = None
    inconsistent_value: float = 0.0
    prune_inconsistent: bool = True

    def validate(self) -> None:
        """Raise :class:`ConfigError` on out-of-range settings."""
        if self.alpha < 1.0:
            raise ConfigError(f"alpha must be >= 1, got {self.alpha}")
        if self.beta < 0.0:
            raise ConfigError(f"beta must be >= 0, got {self.beta}")
        if self.score not in ("log", "raw"):
            raise ConfigError(f"score must be 'log' or 'raw', got {self.score!r}")
        if self.k_strategy not in ("greedy", "exhaustive"):
            raise ConfigError(
                f"k_strategy must be 'greedy' or 'exhaustive', got {self.k_strategy!r}"
            )
        if self.max_k_per_tree is not None and self.max_k_per_tree < 1:
            raise ConfigError(
                f"max_k_per_tree must be >= 1 or None, got {self.max_k_per_tree}"
            )


@dataclass
class TreeSelection:
    """Per-tree outcome of the β-penalised k search."""

    tree_size: int
    k: int
    score: float
    penalized_objective: float
    initiators: Dict[Node, NodeState]
    scanned_k: int


class RID(Detector):
    """Rumor Initiator Detector over infected signed networks.

    Args:
        config: pipeline hyper-parameters (validated eagerly).
        engine: a :class:`~repro.pipeline.engine.DetectionEngine` to run
            on; a private engine (with a private artifact cache) is
            created by default. Pass a shared engine to pool cached
            stage artifacts across detectors.
        runtime: default :class:`~repro.runtime.config.RuntimeConfig`
            for per-component/per-tree fan-out and the on-disk artifact
            store; individual ``detect`` calls may override it.

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
        engine: Optional["object"] = None,
        runtime: Optional[RuntimeConfig] = None,
    ) -> None:
        self.config = config or RIDConfig()
        self.config.validate()
        if engine is None:
            # Imported lazily: repro.pipeline depends on RIDConfig above.
            from repro.pipeline.engine import DetectionEngine

            engine = DetectionEngine(runtime=runtime)
        elif runtime is not None:
            engine.runtime = runtime
        self.engine = engine
        #: Per-tree diagnostics of the last :meth:`detect` call.
        self.last_selections: List[TreeSelection] = []

    # ------------------------------------------------------------------

    def select_initiators_for_tree(
        self, tree: SignedDiGraph, recorder: Optional[Recorder] = None
    ) -> TreeSelection:
        """Run the β-penalised k search on one cascade tree."""
        from repro.pipeline.stages import greedy_tree_selection

        return greedy_tree_selection(self.config, tree, resolve_recorder(recorder))

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
        """
        rec = resolve_recorder(recorder)
        with rec.span("rid.detect", nodes=infected.number_of_nodes()):
            outcome = self.engine.detect(
                self.config,
                infected,
                label=f"{self.name}(beta={self.config.beta})",
                recorder=rec,
                runtime=runtime,
            )
        self.last_selections = outcome.selections
        return outcome.result

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
                A snapshot with zero infected nodes accepts exactly
                ``budget=0`` and returns an empty result.
            recorder: observability sink (ambient recorder by default).
            runtime: fan-out/caching override for this call.

        Raises:
            ConfigError: for a budget outside the feasible range, or
                ``None`` (which the engine would read as β mode).
        """
        if budget is None:
            raise ConfigError(
                f"{self.name}.detect_with_budget() needs an initiator budget "
                f"(budget=...)"
            )
        rec = resolve_recorder(recorder)
        with rec.span("rid.detect_with_budget", budget=budget):
            outcome = self.engine.detect(
                self.config,
                infected,
                budget=budget,
                label=f"{self.name}(k={budget})",
                recorder=rec,
                runtime=runtime,
            )
        self.last_selections = outcome.selections
        return outcome.result
