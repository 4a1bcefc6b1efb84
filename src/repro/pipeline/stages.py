"""The cached steps of RID's detection pipeline, one row each.

RID's detection (Sec. III-E) is five cached steps. Each is a
:class:`Stage` row (name, schema version, the
:class:`~repro.core.rid.RIDConfig` fields it reads, an optional JSON
codec) plus a module-level compute function with the one signature
``(config, item, recorder=None)``:

* ``PRUNE``, :func:`prune_graph`: snapshot -> pruned graph;
* ``COMPONENTS``, :func:`split_components`: graph -> infected components;
* ``ARBORESCENCE``, :func:`extract_component_trees`: component -> its
  cascade trees;
* ``TREE_DP_GREEDY``, :func:`greedy_tree_selection`: tree -> its β-mode
  ``TreeSelection``, from one penalised pass;
* ``TREE_DP_CURVE``, :func:`tree_curve`: tree -> its budget-mode
  :class:`CurveArtifact`.

:class:`~repro.core.rid.RID` runs every row through one cached-step
loop. A compute function runs inline with the caller's recorder, or as
it is in a process-pool worker: :func:`repro.runtime.executor.run_trials`
calls ``compute(config, item)`` under a per-chunk recorder it installs
ambiently. The uncached last step, cross-tree selection, is the plain
:class:`SelectionStage`.

RID looks each compute function up on this module at call time,
and the compute functions look the binarize/DP seam up on
:mod:`repro.core.rid` (``binarize_cascade_tree``, ``TreeDPKernel``) the
same way: those module attributes are where tests stub the DP and where
the end-to-end benchmark's traced run wraps each layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

from repro.core.arborescence import maximum_spanning_branching, split_branching_into_trees
from repro.core.components import infected_components
from repro.graphs.signed_digraph import SignedDiGraph
from repro.graphs.transforms import prune_inconsistent_links
from repro.obs.recorder import Recorder, resolve_recorder
from repro.pipeline import cache as codecs
from repro.runtime.cache import graph_digest, stable_digest


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


@dataclass(frozen=True)
class Stage:
    """One cached pipeline step: what its artifacts are addressed by.

    Attributes:
        name: the step's identity in every cache key.
        version: schema version, also in every key. Bump it when the
            step's output changes, so artifacts written by older code
            are never addressed again.
        fields: the :class:`~repro.core.rid.RIDConfig` fields the step
            reads, in digest order.
        codec: ``(encode, decode)`` for the on-disk store; ``None`` keeps
            the step's artifacts in memory only.
    """

    name: str
    version: int
    fields: Tuple[str, ...] = ()
    codec: Optional[Tuple[Callable[[Any], dict], Callable[[dict], Any]]] = None

    @property
    def label(self) -> str:
        """The fan-out label: ``rid.`` plus the name without its
        ``[mode]`` suffix, so both tree-DP rows time as ``runtime.rid.tree_dp``."""
        return "rid." + self.name.partition("[")[0]

    def key(self, config: "Any", item: SignedDiGraph) -> str:
        """The content address of this step's output for ``item``."""
        config_digest = stable_digest(self.name, *(getattr(config, f) for f in self.fields))
        return codecs.artifact_key(self.name, self.version, config_digest, graph_digest(item))


_DP_FIELDS = ("alpha", "inconsistent_value")

PRUNE = Stage("prune", 1)
COMPONENTS = Stage("components", 1)
ARBORESCENCE = Stage(
    "arborescence", 1, ("score",), (codecs.encode_graph_list, codecs.decode_graph_list)
)
# The curve key leaves out beta and the budget, so a budget sweep
# computes each tree's curve once.
TREE_DP_GREEDY = Stage(
    "tree_dp[greedy]",
    5,
    _DP_FIELDS + ("beta",),
    (codecs.encode_selection, codecs.decode_selection),
)
TREE_DP_CURVE = Stage(
    "tree_dp[curve]", 4, _DP_FIELDS, (codecs.encode_curve, codecs.decode_curve)
)


# ---------------------------------------------------------------------------
# Compute functions: (config, item, recorder=None)
# ---------------------------------------------------------------------------


def prune_graph(
    config: "Any", infected: SignedDiGraph, recorder: Optional[Recorder] = None
) -> SignedDiGraph:
    """Sec. III-E1 pruning: drop sign-inconsistent activation links."""
    rec = resolve_recorder(recorder)
    with rec.span("rid.prune"):
        return prune_inconsistent_links(infected)


def split_components(
    config: "Any", graph: SignedDiGraph, recorder: Optional[Recorder] = None
) -> List[SignedDiGraph]:
    """Sec. III-E1 component detection over the (pruned) infected network."""
    rec = resolve_recorder(recorder)
    with rec.span("rid.components"):
        return infected_components(graph)


def extract_component_trees(
    config: "Any", component: SignedDiGraph, recorder: Optional[Recorder] = None
) -> List[SignedDiGraph]:
    """Sec. III-E2 per component: Chu-Liu/Edmonds branching -> cascade trees."""
    rec = resolve_recorder(recorder)
    with rec.span("rid.extract_trees", components=1):
        branching = maximum_spanning_branching(component, score=config.score)
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


def greedy_tree_selection(
    config: "Any", tree: SignedDiGraph, recorder: Optional[Recorder] = None
) -> "Any":
    """β mode on one cascade tree (RID's default mode): one penalised pass.

    The paper picks ``k* = argmin_k −OPT(k) + (k − 1)·β`` by growing k
    from 1 until the penalised objective stops improving.
    ``TreeDPKernel.solve_penalized`` charges β to each initiator inside
    the DP instead and returns the exact optimum over every ``k >= 1``
    in one pass, with no budget axis. That equals the paper's stop
    wherever ``OPT(k)`` is concave in k and no other k ties the chosen
    objective; the paper's scan is the oracle
    ``greedy_stop`` in ``tests/oracles/tree_dp.py``. No budget is
    scanned, so ``scanned_k`` is 0.

    With an enabled recorder the stage also records ``k*`` and the ends
    of the β interval on which ``k*`` stays optimal
    (``rid.tree_dp.beta_low``, and ``rid.tree_dp.beta_high`` unless
    ``k* = 1``), from a few more passes inside the same ``rid.tree_dp``
    span.
    """
    import repro.core.rid as rid_module

    rec = resolve_recorder(recorder)
    binary = binarize_tree(config, tree, rec)
    with rec.span("rid.tree_dp", tree_nodes=binary.num_real):
        solver = rid_module.TreeDPKernel(binary)
        best = solver.solve_penalized(config.beta)
        if rec.enabled:
            columns = solver.memo_states  # before the interval's passes add theirs
            beta_low, beta_high = solver.beta_interval(best)
    if rec.enabled:
        rec.gauge("rid.tree_nodes", binary.num_real)
        rec.gauge("rid.tree_dp.memo_states", columns)
        rec.gauge("rid.tree_dp.k_chosen", best.k)
        rec.gauge("rid.tree_dp.beta_low", beta_low)
        if beta_high is not None:
            rec.gauge("rid.tree_dp.beta_high", beta_high)
    return rid_module.TreeSelection(
        tree_size=binary.num_real,
        k=best.k,
        score=best.score,
        penalized_objective=best.score - (best.k - 1) * config.beta,
        initiators=best.initiators,
        scanned_k=0,
    )


def tree_curve(
    config: "Any", tree: SignedDiGraph, recorder: Optional[Recorder] = None
) -> CurveArtifact:
    """Budget mode: solve one tree's DP for every feasible per-tree k."""
    import repro.core.rid as rid_module

    rec = resolve_recorder(recorder)
    binary = binarize_tree(config, tree, rec)
    with rec.span("rid.tree_dp", tree_nodes=binary.num_real):
        solver = rid_module.TreeDPKernel(binary)
        # One post-order sweep produces the whole incremental curve.
        per_k = solver.solve_curve(binary.num_real)
    if rec.enabled:
        rec.gauge("rid.tree_nodes", binary.num_real)
        rec.incr("rid.k_iterations", binary.num_real)
        rec.gauge("rid.tree_dp.memo_states", solver.memo_states)
    return CurveArtifact(tree_size=binary.num_real, results=per_k)


class SelectionStage:
    """Cross-tree aggregation: β-mode merge or budgeted knapsack.

    Not a :class:`Stage` row: it is never cached. It is linear in the
    number of trees (β mode) or one exact knapsack over the per-tree
    curves (budget mode), and its inputs already come from cached
    artifacts. RID calls the two methods directly.
    """

    def merge_greedy(self, selections: List["Any"]) -> Tuple:
        """Union per-tree selections in tree order (β-penalised mode)."""
        initiators: dict = {}
        total_objective = 0.0
        for selection in selections:
            initiators.update(selection.initiators)
            total_objective += selection.penalized_objective
        return initiators, total_objective

    def knapsack(
        self, curves: List[CurveArtifact], budget: int, recorder: Optional[Recorder] = None
    ) -> Tuple:
        """Exact budget split across trees over the per-tree OPT curves.

        Returns ``(per_tree_budgets, best_total)``;
        ``per_tree_budgets[t]`` is the k assigned to tree ``t`` (each
        tree consumes at least 1). Each curve covers every k from 1 to
        its tree's size, and the trees partition the infected nodes, so
        every budget in ``[trees, infected nodes]`` (the range RID
        admits) is feasible.
        """
        rec = resolve_recorder(recorder)
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
        remaining = budget
        per_tree_budgets: List[int] = [0] * len(curves)
        for t in range(len(curves) - 1, -1, -1):
            k = choice[t][remaining]
            per_tree_budgets[t] = k
            remaining -= k
        return per_tree_budgets, best[budget]
