"""Benchmark X6 — the detector zoo: RID against the related-work field.

The paper's Table I positions ISOMIT against unsigned effectors and
SIR-based source detection. This bench runs the whole implemented field
— RID, RID-Tree, RID-Positive, rumor centrality, Jordan center,
distance center, k-effectors and simulation matching — on one shared
snapshot and records their precision/recall/F1 side by side.

Shape check: the signed, multi-initiator-aware methods (RID family)
must dominate the single-source unsigned classics on recall — those
detect at most one initiator per component by construction.
"""

from benchmarks.conftest import BENCH_SEED
from repro.core.rid import RID, RIDConfig
from repro.detectors import (
    CertaintyCoverConfig,
    CertaintyCoverDetector,
    DistanceCenterDetector,
    JordanCenterDetector,
    KEffectorsConfig,
    KEffectorsDetector,
    RIDPositiveDetector,
    RIDTreeDetector,
    SimulationMatchingConfig,
    SimulationMatchingDetector,
)
from repro.experiments.config import WorkloadConfig
from repro.experiments.reporting import format_table, save_json
from repro.experiments.workload import build_workload
from repro.metrics.identity import identity_metrics

ZOO_SCALE = 0.008


def build_zoo():
    return [
        RIDTreeDetector(),
        RIDPositiveDetector(),
        RID(RIDConfig(beta=0.8)),
        JordanCenterDetector(),
        DistanceCenterDetector(),
        KEffectorsDetector(
            KEffectorsConfig(trials=5, candidate_limit=15, seed=BENCH_SEED)
        ),
        SimulationMatchingDetector(
            SimulationMatchingConfig(trials=5, candidate_limit=15, seed=BENCH_SEED)
        ),
        CertaintyCoverDetector(CertaintyCoverConfig(alpha=3.0)),
    ]


def test_detector_zoo(benchmark, results_dir):
    workload = build_workload(
        WorkloadConfig(dataset="epinions", scale=ZOO_SCALE, seed=BENCH_SEED)
    )
    truth = set(workload.seeds)

    def run_zoo():
        scores = {}
        for detector in build_zoo():
            result = detector.detect(workload.infected)
            scores[result.method] = (
                len(result.initiators),
                identity_metrics(result.initiators, truth),
            )
        return scores

    scores = benchmark.pedantic(run_zoo, rounds=1, iterations=1)

    rows = [
        (method, detected, m.precision, m.recall, m.f1)
        for method, (detected, m) in scores.items()
    ]
    print()
    print(
        format_table(
            headers=["method", "#detected", "precision", "recall", "F1"],
            rows=rows,
            title=f"Detector zoo (epinions-like, scale {ZOO_SCALE}, "
            f"{workload.infected.number_of_nodes()} infected, {len(truth)} true)",
        )
    )
    save_json(
        {
            method: {"detected": d, "precision": m.precision, "recall": m.recall, "f1": m.f1}
            for method, (d, m) in scores.items()
        },
        results_dir / "detector_zoo.json",
    )

    rid_recall = scores["rid(beta=0.8)"][1].recall
    for single_source in ("jordan-center", "distance-center"):
        assert scores[single_source][1].recall <= rid_recall + 0.05, (
            f"{single_source} recall unexpectedly beats RID"
        )
    # Every method must at least run and detect something.
    assert all(detected >= 1 for detected, _ in scores.values())
