"""Ablations for the design choices DESIGN.md calls out.

* **X1 — α sensitivity**: how the asymmetric boosting coefficient shapes
  cascade size, flip counts and the positive-state mix.
* **X3 — DP scaling**: k-ISOMIT-BT solve time and explored budget as
  tree size grows (incl. the binarisation overhead).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Sequence

from repro.core.binarize import binarize_cascade_tree
from repro.core.rid import RID, RIDConfig
from repro.diffusion.mfc import MFCModel
from repro.diffusion.monte_carlo import SpreadEstimate, estimate_spread
from repro.experiments.config import WorkloadConfig
from repro.experiments.reporting import format_table
from repro.experiments.workload import build_network, build_workload
from repro.diffusion.seeds import plant_random_initiators
from repro.graphs.generators.trees import random_general_tree
from repro.graphs.transforms import to_diffusion_network
from repro.kernel.tree_dp import TreeDPKernel
from repro.types import NodeState
from repro.utils.rng import derive_seed
from repro.weights.jaccard import assign_jaccard_weights


# --------------------------------------------------------------------------
# X1: alpha sensitivity
# --------------------------------------------------------------------------


@dataclass
class AlphaPoint:
    """Cascade statistics at one α value."""

    alpha: float
    spread: SpreadEstimate


def run_alpha_sweep(
    alphas: Sequence[float] = (1.0, 2.0, 3.0, 5.0),
    scale: float = 0.01,
    trials: int = 5,
    seed: int = 7,
    dataset: str = "epinions",
) -> List[AlphaPoint]:
    """Estimate MFC spread on the same network/seeds at each α."""
    config = WorkloadConfig(dataset=dataset, scale=scale, seed=seed)
    social = build_network(config)
    diffusion = to_diffusion_network(social)
    assign_jaccard_weights(diffusion, social, rng=derive_seed(seed, "weights"))
    seeds = plant_random_initiators(
        diffusion,
        count=min(config.resolved_num_initiators(), diffusion.number_of_nodes()),
        positive_ratio=config.positive_ratio,
        rng=derive_seed(seed, "seeds"),
    )
    points: List[AlphaPoint] = []
    for alpha in alphas:
        spread = estimate_spread(
            MFCModel(alpha=alpha), diffusion, seeds, trials=trials, base_seed=seed
        )
        points.append(AlphaPoint(alpha=alpha, spread=spread))
    return points


def render_alpha_sweep(points: List[AlphaPoint]) -> str:
    """ASCII table of the α ablation."""
    rows = [
        (
            p.alpha,
            p.spread.mean_infected,
            p.spread.mean_positive_fraction,
            p.spread.mean_flips,
            p.spread.mean_rounds,
        )
        for p in points
    ]
    return format_table(
        headers=["alpha", "mean infected", "positive frac", "mean flips", "mean rounds"],
        rows=rows,
        title="Ablation X1 — asymmetric boosting coefficient",
    )


# --------------------------------------------------------------------------
# X3: DP scaling
# --------------------------------------------------------------------------


@dataclass
class DPScalingPoint:
    """DP cost at one tree size."""

    tree_size: int
    binary_size: int
    dummy_nodes: int
    binarize_seconds: float
    solve_seconds: float
    k_solved: int


def run_dp_scaling(
    sizes: Sequence[int] = (10, 50, 100, 200),
    k: int = 3,
    seed: int = 7,
) -> List[DPScalingPoint]:
    """Time binarisation + DP solve on random general trees."""
    points: List[DPScalingPoint] = []
    for size in sizes:
        tree = random_general_tree(size, max_children=5, rng=derive_seed(seed, size))
        for node in tree.nodes():
            tree.set_state(node, NodeState.POSITIVE)
        start = time.perf_counter()
        binary = binarize_cascade_tree(tree, alpha=3.0)
        binarize_seconds = time.perf_counter() - start
        budget = min(k, binary.num_real)
        start = time.perf_counter()
        TreeDPKernel(binary).solve(budget)  # compile + sweep
        solve_seconds = time.perf_counter() - start
        points.append(
            DPScalingPoint(
                tree_size=size,
                binary_size=binary.size(),
                dummy_nodes=binary.size() - binary.num_real,
                binarize_seconds=binarize_seconds,
                solve_seconds=solve_seconds,
                k_solved=budget,
            )
        )
    return points


def render_dp_scaling(points: List[DPScalingPoint]) -> str:
    """ASCII table of the DP scaling ablation."""
    rows = [
        (
            p.tree_size,
            p.binary_size,
            p.dummy_nodes,
            p.k_solved,
            p.binarize_seconds,
            p.solve_seconds,
        )
        for p in points
    ]
    return format_table(
        headers=["tree size", "binary size", "#dummies", "k", "binarise s", "solve s"],
        rows=rows,
        title="Ablation X3 — binarisation + DP scaling",
        precision=5,
    )


# --------------------------------------------------------------------------
# X8: arborescence score transform (log vs the paper's raw arithmetic)
# --------------------------------------------------------------------------


@dataclass
class ScoreTransformComparison:
    """RID under the log (max-product) vs raw (paper-literal) transforms."""

    score: str
    num_detected: int
    precision: float
    recall: float
    f1: float


def run_score_transform_ablation(
    scale: float = 0.005,
    beta: float = 0.8,
    seed: int = 7,
    dataset: str = "epinions",
) -> List[ScoreTransformComparison]:
    """Compare the two Algorithm 2/3 arithmetic readings end to end.

    ``log`` maximises the likelihood product ``Π w`` (the objective the
    paper states); ``raw`` applies Algorithm 3's subtraction literally
    (maximising ``Σ w``). Both yield valid cascade forests; this
    ablation quantifies how much the choice matters downstream.
    """
    from repro.metrics.identity import identity_metrics

    workload = build_workload(WorkloadConfig(dataset=dataset, scale=scale, seed=seed))
    truth = set(workload.seeds)
    comparisons: List[ScoreTransformComparison] = []
    for score in ("log", "raw"):
        result = RID(RIDConfig(beta=beta, score=score)).detect(workload.infected)
        metrics = identity_metrics(result.initiators, truth)
        comparisons.append(
            ScoreTransformComparison(
                score=score,
                num_detected=len(result.initiators),
                precision=metrics.precision,
                recall=metrics.recall,
                f1=metrics.f1,
            )
        )
    return comparisons


def render_score_transform(comparisons: List[ScoreTransformComparison]) -> str:
    """ASCII table of the score-transform ablation."""
    rows = [
        (c.score, c.num_detected, c.precision, c.recall, c.f1) for c in comparisons
    ]
    return format_table(
        headers=["score transform", "#detected", "precision", "recall", "F1"],
        rows=rows,
        title="Ablation X8 — arborescence arithmetic (log product vs paper-literal raw sum)",
    )


def main(seed: int = 7) -> None:
    """Run and print all ablations in this module."""
    print(render_alpha_sweep(run_alpha_sweep(seed=seed)))
    print()
    print(render_dp_scaling(run_dp_scaling(seed=seed)))
    print()
    print(render_score_transform(run_score_transform_ablation(seed=seed)))
