"""Concrete stages of the RID detection pipeline.

Each cached paper step (Sec. III-E) is one
:class:`~repro.pipeline.stage.Stage` subclass, built on a module-level
*compute function* so the same code runs three ways:

* serially in-process (``Stage.run`` with the caller's recorder),
* inside a process-pool worker (the engine's fan-out ships the compute
  function via :func:`repro.runtime.executor.run_trials`, which installs
  a per-chunk metrics recorder ambiently), and
* standalone (``RID.select_initiators_for_tree`` delegates to
  :func:`greedy_tree_selection` so per-tree diagnostics keep working).

The uncached last step, cross-tree selection, is the plain
:class:`SelectionStage`. Prune, ComponentSplit and Arborescence are the
front half every cascade forest in the library comes from:
``DetectionEngine.forest`` for the RID-Tree and RID-Positive baselines,
``DetectionEngine.detect`` for RID itself.

The binarize/DP seam is looked up **dynamically** on
:mod:`repro.core.rid` (``rid_module.binarize_cascade_tree`` /
``rid_module.TreeDPKernel``) rather than imported by value. That
module attribute is the library's long-standing monkeypatch point for
stubbing the DP in tests; the pipeline must honour it exactly like the
pre-refactor sequential implementation did.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from repro.core.arborescence import maximum_spanning_branching, split_branching_into_trees
from repro.core.components import infected_components
from repro.graphs.signed_digraph import SignedDiGraph
from repro.graphs.transforms import prune_inconsistent_links
from repro.obs.recorder import Recorder, resolve_recorder
from repro.pipeline import cache as codecs
from repro.pipeline.stage import Stage, StageContext
from repro.runtime.cache import stable_digest


@dataclass
class CurveArtifact:
    """Budget-mode output for one cascade tree: the full ``OPT`` curve.

    Attributes:
        tree_size: ``binary.num_real`` — the comparable tree size both
            RID entry points report.
        results: ``results[k-1]`` solves the tree for exactly ``k``
            initiators, ``k`` in ``1..cap``.
    """

    tree_size: int
    results: List["Any"]  # List[TreeDPResult]


# ---------------------------------------------------------------------------
# Compute functions (shared by Stage.run, pool workers and RID)
# ---------------------------------------------------------------------------


def prune_graph(infected: SignedDiGraph, recorder: Optional[Recorder] = None) -> SignedDiGraph:
    """Sec. III-E1 pruning: drop sign-inconsistent activation links."""
    rec = resolve_recorder(recorder)
    with rec.span("rid.prune"):
        return prune_inconsistent_links(infected)


def split_components(graph: SignedDiGraph, recorder: Optional[Recorder] = None) -> List[SignedDiGraph]:
    """Sec. III-E1 component detection over the (pruned) infected network."""
    rec = resolve_recorder(recorder)
    with rec.span("rid.components"):
        return infected_components(graph)


def extract_component_trees(
    component: SignedDiGraph, score: str, recorder: Optional[Recorder] = None
) -> List[SignedDiGraph]:
    """Sec. III-E2 per component: Chu-Liu/Edmonds branching -> cascade trees."""
    rec = resolve_recorder(recorder)
    with rec.span("rid.extract_trees", components=1):
        branching = maximum_spanning_branching(component, score=score)
        return split_branching_into_trees(branching)


def binarize_tree(config: "Any", tree: SignedDiGraph, recorder: Optional[Recorder] = None) -> "Any":
    """Sec. III-E3 binarisation (through the ``rid_module`` seam)."""
    import repro.core.rid as rid_module

    rec = resolve_recorder(recorder)
    with rec.span("rid.binarize"):
        return rid_module.binarize_cascade_tree(
            tree,
            alpha=config.alpha,
            inconsistent_value=config.inconsistent_value,
        )


def _tree_cap(config: "Any", binary: "Any") -> int:
    cap = binary.num_real
    if config.max_k_per_tree is not None:
        cap = min(cap, config.max_k_per_tree)
    return cap


def greedy_tree_selection(
    config: "Any", tree: SignedDiGraph, recorder: Optional[Recorder] = None
) -> "Any":
    """The β-penalised k search on one cascade tree (RID's default mode).

    Bit-identical to the pre-refactor ``RID.select_initiators_for_tree``:
    same scan order, same early-stop-on-non-improvement rule, same spans
    and counters. The scan compares root scores only and reconstructs
    the placement once, for the winning k.
    """
    import repro.core.rid as rid_module

    rec = resolve_recorder(recorder)
    binary = binarize_tree(config, tree, rec)
    max_k = _tree_cap(config, binary)

    curve = [0.0]  # curve[k] = OPT(k) for every scanned k
    best_k = 0
    best_objective = float("-inf")
    with rec.span("rid.tree_dp", tree_nodes=binary.num_real):
        solver = rid_module.TreeDPKernel(binary)
        for k in range(1, max_k + 1):
            score = solver.solve_score(k)
            curve.append(score)
            objective = score - (k - 1) * config.beta
            if objective > best_objective:
                best_k, best_objective = k, objective
            elif config.k_strategy == "greedy":
                # Paper heuristic: stop at the first k that fails to
                # improve the penalised objective.
                break
        assert best_k >= 1  # max_k >= 1 guarantees one iteration
        best = solver.solve(best_k)
    scanned = len(curve) - 1
    if rec.enabled:
        rec.gauge("rid.tree_nodes", binary.num_real)
        rec.incr("rid.k_iterations", scanned)
        rec.gauge("rid.tree_dp.memo_states", solver.memo_states)
        rec.gauge("rid.tree_dp.k_chosen", best_k)
        if best_k < scanned:
            # How close the scan came to adding another initiator.
            rec.gauge(
                "rid.tree_dp.stop_margin",
                curve[best_k + 1] - curve[best_k] - config.beta,
            )
    return rid_module.TreeSelection(
        tree_size=binary.num_real,
        k=best.k,
        score=best.score,
        penalized_objective=best_objective,
        initiators=best.initiators,
        scanned_k=scanned,
    )


def tree_curve(
    config: "Any", tree: SignedDiGraph, recorder: Optional[Recorder] = None
) -> CurveArtifact:
    """Budget mode: solve one tree's DP for every feasible per-tree k."""
    import repro.core.rid as rid_module

    rec = resolve_recorder(recorder)
    binary = binarize_tree(config, tree, rec)
    cap = _tree_cap(config, binary)
    with rec.span("rid.tree_dp", tree_nodes=binary.num_real):
        solver = rid_module.TreeDPKernel(binary)
        # One post-order sweep produces the whole incremental curve.
        per_k = solver.solve_curve(cap)
    if rec.enabled:
        rec.gauge("rid.tree_nodes", binary.num_real)
        rec.incr("rid.k_iterations", cap)
        rec.gauge("rid.tree_dp.memo_states", solver.memo_states)
    return CurveArtifact(tree_size=binary.num_real, results=per_k)


# ---------------------------------------------------------------------------
# Stage classes
# ---------------------------------------------------------------------------


class PruneStage(Stage):
    """Whole-graph consistency pruning (skipped when the config disables it)."""

    name = "prune"
    version = 1

    def run(self, ctx: StageContext, item: SignedDiGraph) -> SignedDiGraph:
        return prune_graph(item, ctx.recorder)


class ComponentSplitStage(Stage):
    """Weakly-connected-component split of the pruned infected network."""

    name = "components"
    version = 1

    def run(self, ctx: StageContext, item: SignedDiGraph) -> List[SignedDiGraph]:
        return split_components(item, ctx.recorder)


class ArborescenceStage(Stage):
    """Per-component max-likelihood branching + split into cascade trees."""

    name = "arborescence"
    version = 1
    persist = True

    def config_digest(self, config: "Any") -> str:
        return stable_digest(self.name, config.score)

    def run(self, ctx: StageContext, item: SignedDiGraph) -> List[SignedDiGraph]:
        return extract_component_trees(item, ctx.config.score, ctx.recorder)

    def encode(self, value: List[SignedDiGraph]) -> dict:
        return codecs.encode_graph_list(value)

    def decode(self, payload: dict) -> List[SignedDiGraph]:
        return codecs.decode_graph_list(payload)


class TreeDPStage(Stage):
    """Per-tree binarize + k-ISOMIT-BT DP work unit.

    ``mode='greedy'`` runs the β-penalised k search and yields a
    :class:`~repro.core.rid.TreeSelection`; ``mode='curve'`` solves the
    full per-k ``OPT`` curve for the budget knapsack and yields a
    :class:`CurveArtifact`. The two modes cache independently — but the
    curve key deliberately excludes ``budget``, so one k-search sweep
    computes each tree's curve exactly once.

    Version 2: the DP runs on the compiled flat-array kernel by default
    (bit-identical output, but the bump keeps cache keys disjoint from
    artifacts computed by the recursive pre-kernel code).

    Version 3 folded the resolved kernel backend into the config digest;
    version 4 drops it again (the DP has one implementation). Each bump
    keeps new keys disjoint from artifacts computed by older code.
    """

    persist = True
    version = 4

    def __init__(self, mode: str) -> None:
        if mode not in ("greedy", "curve"):
            raise ValueError(f"mode must be 'greedy' or 'curve', got {mode!r}")
        self.mode = mode
        self.name = f"tree_dp[{mode}]"

    def config_digest(self, config: "Any") -> str:
        common = (config.alpha, config.inconsistent_value, config.max_k_per_tree)
        if self.mode == "greedy":
            return stable_digest(self.name, *common, config.beta, config.k_strategy)
        return stable_digest(self.name, *common)

    def run(self, ctx: StageContext, item: SignedDiGraph) -> "Any":
        if self.mode == "greedy":
            return greedy_tree_selection(ctx.config, item, ctx.recorder)
        return tree_curve(ctx.config, item, ctx.recorder)

    def encode(self, value: "Any") -> dict:
        if self.mode == "greedy":
            return codecs.encode_selection(value)
        return codecs.encode_curve(value)

    def decode(self, payload: dict) -> "Any":
        if self.mode == "greedy":
            return codecs.decode_selection(payload)
        return codecs.decode_curve(payload)


class SelectionStage:
    """Cross-tree aggregation: β-mode merge or budgeted knapsack.

    A plain class, not a :class:`~repro.pipeline.stage.Stage`: it is
    never cached — it is linear in the number of trees (β mode) or one
    exact knapsack over the per-tree curves (budget mode), and its
    inputs already come from cached artifacts. The engine calls the two
    methods directly.
    """

    def merge_greedy(self, ctx: StageContext, selections: List["Any"]) -> Tuple:
        """Union per-tree selections in tree order (β-penalised mode)."""
        initiators: dict = {}
        total_objective = 0.0
        for selection in selections:
            initiators.update(selection.initiators)
            total_objective += selection.penalized_objective
        return initiators, total_objective

    def knapsack(
        self, ctx: StageContext, curves: List[CurveArtifact], budget: int
    ) -> Tuple:
        """Exact budget split across trees over the per-tree OPT curves.

        Returns ``(per_tree_budgets, best_total)``;
        ``per_tree_budgets[t]`` is the k assigned to tree ``t`` (each
        tree consumes at least 1). ``best_total`` is ``-inf`` when the
        budget is infeasible under the per-tree caps.
        """
        rec = ctx.recorder
        with rec.span("rid.knapsack", budget=budget, trees=len(curves)):
            neg_inf = float("-inf")
            best: List[float] = [0.0] + [neg_inf] * budget
            choice: List[List[int]] = []  # choice[t][j] = k taken by tree t
            for artifact in curves:
                curve = [result.score for result in artifact.results]
                new_best = [neg_inf] * (budget + 1)
                tree_choice = [0] * (budget + 1)
                for j in range(budget + 1):
                    if best[j] == neg_inf:
                        continue
                    for k, score in enumerate(curve, start=1):
                        total = best[j] + score
                        if j + k <= budget and total > new_best[j + k]:
                            new_best[j + k] = total
                            tree_choice[j + k] = k
                best = new_best
                choice.append(tree_choice)
        if best[budget] == neg_inf:
            return None, neg_inf
        remaining = budget
        per_tree_budgets: List[int] = [0] * len(curves)
        for t in range(len(curves) - 1, -1, -1):
            k = choice[t][remaining]
            per_tree_budgets[t] = k
            remaining -= k
        return per_tree_budgets, best[budget]
