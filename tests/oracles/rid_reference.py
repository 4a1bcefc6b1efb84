"""The pre-refactor sequential RID pipeline, kept as an executable spec.

This module freezes the fused single-function implementation that
``RID.detect`` / ``RID.detect_with_budget`` used before detection moved
to the cached steps of :mod:`repro.pipeline.stages`, which
:class:`~repro.core.rid.RID` runs. It exists for exactly one purpose:
the **pipeline-identity gate**
(``tests/integration/test_engine_identity.py`` and
``benchmarks/bench_pipeline.py``) asserts that RID's output —
initiators, inferred states, objective, tree structures and ordering,
per-tree selections — is bit-identical to this reference on the golden
regression snapshots and on randomised multi-component worlds.

β mode here is the paper's rule: per tree, grow k from 1 and stop at
the first k that does not improve ``OPT(k) − (k − 1)·β``. RID solves
the same selection exactly, in one penalised pass per tree. The two
agree wherever ``OPT(k)`` is concave in k and no other k ties the
chosen objective, which holds on every gated snapshot. The gates
compare per-tree ``k``, ``score``, ``penalized_objective`` and
initiators in both modes, and ``scanned_k`` in budget mode only: RID's
β mode scans no budget and reports 0.

Do not "improve" this module; behavioural changes belong in RID, and
the gate exists to catch them. It deliberately bypasses the
``rid_module`` monkeypatch seam and the artifact caches: plain imports,
no reuse, one sequential pass. :func:`reference_forest` is the
sequential cascade-forest extractor RID's front half (``RID.forest``,
and through it the RID-Tree baselines) is checked against.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.detectors.base import DetectionResult
from repro.core.arborescence import maximum_spanning_branching, split_branching_into_trees
from repro.core.binarize import binarize_cascade_tree
from repro.core.components import infected_components
from repro.errors import ConfigError, EmptyInfectionError
from repro.graphs.signed_digraph import SignedDiGraph
from repro.graphs.transforms import prune_inconsistent_links
from repro.kernel.tree_dp import TreeDPResult
from repro.obs.recorder import Recorder, resolve_recorder
from repro.types import Node, NodeState
from tests.oracles.tree_dp import RecursiveTreeDP


def reference_forest(
    config, infected: SignedDiGraph, recorder: Optional[Recorder] = None
) -> List[SignedDiGraph]:
    """Sequential Algorithm 4: prune, components, one branching each.

    Reads ``config.score`` and ``config.prune_inconsistent`` only. Records
    the ``rid.prune``, ``rid.components`` and one ``rid.extract_trees``
    span plus the component/tree counters.

    Raises:
        EmptyInfectionError: when ``infected`` has no nodes.
    """
    if infected.number_of_nodes() == 0:
        raise EmptyInfectionError("infected network has no nodes")
    rec = resolve_recorder(recorder)
    if config.prune_inconsistent:
        edges_before = infected.number_of_edges()
        with rec.span("rid.prune"):
            infected = prune_inconsistent_links(infected)
        if rec.enabled:
            rec.incr("rid.pruned_links", edges_before - infected.number_of_edges())
    with rec.span("rid.components"):
        pieces = infected_components(infected)
    trees: List[SignedDiGraph] = []
    with rec.span("rid.extract_trees", components=len(pieces)):
        for piece in pieces:
            branching = maximum_spanning_branching(piece, score=config.score)
            trees.extend(split_branching_into_trees(branching))
    if rec.enabled:
        rec.incr("rid.components", len(pieces))
        rec.incr("rid.trees", len(trees))
    return trees


def reference_select_for_tree(config, tree: SignedDiGraph):
    """The paper's β-penalised k search on one cascade tree: grow k from 1
    and stop at the first k whose penalised objective does not improve.

    RID's one penalised pass per tree returns the exact optimum over
    every k, which equals this stop wherever ``OPT(k)`` is concave in k
    and no other k ties it. ``scanned_k`` counts the budgets scanned
    here; RID's β mode reports 0.
    """
    from repro.core.rid import TreeSelection

    binary = binarize_cascade_tree(
        tree, alpha=config.alpha, inconsistent_value=config.inconsistent_value
    )
    # The reference stays on the recursive solver: the identity gate then
    # crosses the compiled-kernel/reference boundary, not kernel-vs-kernel.
    solver = RecursiveTreeDP(binary)
    max_k = binary.num_real

    best: Optional[TreeDPResult] = None
    best_objective = float("-inf")
    scanned = 0
    for k in range(1, max_k + 1):
        scanned += 1
        result = solver.solve(k)
        objective = result.score - (k - 1) * config.beta
        if objective > best_objective:
            best, best_objective = result, objective
        else:
            break
    assert best is not None
    return TreeSelection(
        tree_size=binary.num_real,
        k=best.k,
        score=best.score,
        penalized_objective=best_objective,
        initiators=best.initiators,
        scanned_k=scanned,
    )


def reference_detect(
    config, infected: SignedDiGraph, recorder: Optional[Recorder] = None
) -> Tuple[DetectionResult, List]:
    """Pre-refactor ``RID.detect``; returns ``(result, selections)``."""
    config.validate()
    rec = resolve_recorder(recorder)
    trees = reference_forest(config, infected, rec)
    initiators: Dict[Node, NodeState] = {}
    total_objective = 0.0
    selections = []
    for tree in trees:
        selection = reference_select_for_tree(config, tree)
        selections.append(selection)
        initiators.update(selection.initiators)
        total_objective += selection.penalized_objective
    result = DetectionResult(
        method=f"rid(beta={config.beta})",
        initiators=set(initiators),
        states=initiators,
        trees=trees,
        objective=total_objective,
    )
    return result, selections


def reference_detect_with_budget(
    config,
    infected: SignedDiGraph,
    budget: int,
    recorder: Optional[Recorder] = None,
) -> Tuple[DetectionResult, List]:
    """Pre-refactor ``RID.detect_with_budget``; returns ``(result, selections)``."""
    from repro.core.rid import TreeSelection

    config.validate()
    rec = resolve_recorder(recorder)
    trees = reference_forest(config, infected, rec)
    if budget < len(trees) or budget > infected.number_of_nodes():
        raise ConfigError(
            f"budget must be in [{len(trees)}, {infected.number_of_nodes()}] "
            f"({len(trees)} cascade trees were extracted), got {budget}"
        )
    curves: List[List[float]] = []
    results_by_tree: List[List[TreeDPResult]] = []
    tree_sizes: List[int] = []
    for tree in trees:
        binary = binarize_cascade_tree(
            tree, alpha=config.alpha, inconsistent_value=config.inconsistent_value
        )
        # Recursive oracle here too — see reference_select_for_tree.
        solver = RecursiveTreeDP(binary)
        cap = binary.num_real
        per_k = [solver.solve(k) for k in range(1, cap + 1)]
        results_by_tree.append(per_k)
        curves.append([result.score for result in per_k])
        tree_sizes.append(binary.num_real)

    neg_inf = float("-inf")
    best: List[float] = [0.0] + [neg_inf] * budget
    choice: List[List[int]] = []
    for t, curve in enumerate(curves):
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
        raise ConfigError(
            f"budget {budget} is infeasible for the extracted trees "
            f"(per-tree caps too small)"
        )

    initiators: Dict[Node, NodeState] = {}
    remaining = budget
    per_tree_budgets: List[int] = [0] * len(trees)
    for t in range(len(trees) - 1, -1, -1):
        k = choice[t][remaining]
        per_tree_budgets[t] = k
        remaining -= k
    selections = []
    for t, k in enumerate(per_tree_budgets):
        result = results_by_tree[t][k - 1]
        initiators.update(result.initiators)
        selections.append(
            TreeSelection(
                tree_size=tree_sizes[t],
                k=k,
                score=result.score,
                penalized_objective=result.score,
                initiators=result.initiators,
                scanned_k=len(curves[t]),
            )
        )
    result = DetectionResult(
        method=f"rid(k={budget})",
        initiators=set(initiators),
        states=initiators,
        trees=trees,
        objective=best[budget],
    )
    return result, selections
