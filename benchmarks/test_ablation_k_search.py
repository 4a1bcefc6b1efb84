"""Benchmark X2 — ablation: RID's exact β selection vs the paper's greedy stop.

The paper grows k from 1 per cascade tree and stops at the first
non-improvement, "to balance between the time cost and quality of the
result". RID solves the same per-tree selection exactly, in one
penalised pass per tree. This ablation runs both on the same cascade
trees, at each β: RID's β stage (``stages.greedy_tree_selection``)
against the paper's rule, the oracle ``greedy_stop`` in
``tests/oracles/tree_dp.py``, each with its binarisation. It reports
detections, the objective gap (RID's total penalised objective minus
the rule's, never below zero) and each side's selection time.
"""

import time

from benchmarks.conftest import BENCH_SEED
from repro.core.binarize import binarize_cascade_tree
from repro.core.rid import RID, RIDConfig
from repro.experiments import ablations
from repro.experiments.config import WorkloadConfig
from repro.experiments.reporting import format_table, save_json
from repro.experiments.workload import build_workload
from repro.pipeline import stages
from tests.oracles.tree_dp import greedy_stop

BETAS = (0.1, 0.5, 1.0)


def rid_selection(config, tree):
    selection = stages.greedy_tree_selection(config, tree)
    return selection.initiators, selection.penalized_objective


def paper_rule(config, tree):
    binary = binarize_cascade_tree(
        tree, alpha=config.alpha, inconsistent_value=config.inconsistent_value
    )
    best = greedy_stop(binary, config.beta)
    return best.initiators, best.score - (best.k - 1) * config.beta


def select_all(select, config, trees):
    """``(detected, total objective, seconds)`` of one rule over every tree."""
    start = time.perf_counter()
    initiators, objective = {}, 0.0
    for tree in trees:
        chosen, tree_objective = select(config, tree)
        initiators.update(chosen)
        objective += tree_objective
    return len(initiators), objective, time.perf_counter() - start


def compare_selections(scale, betas, seed):
    workload = build_workload(WorkloadConfig(dataset="epinions", scale=scale, seed=seed))
    trees = RID().forest(workload.infected)
    rows = []
    for beta in betas:
        config = RIDConfig(beta=beta)
        rid_detected, rid_objective, rid_seconds = select_all(rid_selection, config, trees)
        rule_detected, rule_objective, rule_seconds = select_all(paper_rule, config, trees)
        rows.append(
            {
                "beta": beta,
                "trees": len(trees),
                "rid_detected": rid_detected,
                "paper_rule_detected": rule_detected,
                "rid_objective": rid_objective,
                "paper_rule_objective": rule_objective,
                "objective_gap": rid_objective - rule_objective,
                "rid_seconds": rid_seconds,
                "paper_rule_seconds": rule_seconds,
            }
        )
    return rows


def test_greedy_vs_exhaustive_k_search(benchmark, results_dir):
    rows = benchmark.pedantic(
        lambda: compare_selections(scale=0.004, betas=BETAS, seed=BENCH_SEED),
        rounds=1,
        iterations=1,
    )
    print()
    print(
        format_table(
            headers=["beta", "RID #det", "rule #det", "gap", "RID s", "rule s"],
            rows=[
                (
                    r["beta"],
                    r["rid_detected"],
                    r["paper_rule_detected"],
                    r["objective_gap"],
                    r["rid_seconds"],
                    r["paper_rule_seconds"],
                )
                for r in rows
            ],
            title="Ablation X2 — exact β selection (RID) vs the paper's greedy stop",
        )
    )
    save_json(rows, results_dir / "ablation_k_search.json")

    for row in rows:
        # The exact optimum is never worse on the penalised objective.
        assert row["objective_gap"] >= -1e-9
    # Both rules detect fewer initiators at high beta.
    for key in ("rid_detected", "paper_rule_detected"):
        assert rows[0][key] >= rows[-1][key]


def test_score_transform_readings(benchmark, results_dir):
    """Ablation X8 — Algorithm 2/3 arithmetic: log product vs raw sum.

    The transform only affects cycle-contraction adjustments (per-node
    greedy picks are invariant under any monotone transform), so the two
    readings should be nearly indistinguishable end to end.
    """
    comparisons = benchmark.pedantic(
        lambda: ablations.run_score_transform_ablation(scale=0.004, seed=BENCH_SEED),
        rounds=1,
        iterations=1,
    )
    print()
    print(ablations.render_score_transform(comparisons))
    save_json(
        [c.__dict__ for c in comparisons], results_dir / "ablation_score_transform.json"
    )
    by_score = {c.score: c for c in comparisons}
    assert abs(by_score["log"].f1 - by_score["raw"].f1) < 0.1
