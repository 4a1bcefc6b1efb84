#!/usr/bin/env python
"""Rumor forensics: compare every detector on one infected snapshot.

The scenario from the paper's introduction: a rumor has swept a signed
trust network and an analyst holds one snapshot of who believes what.
This example runs the full method lineup — RID at several β settings,
the RID-Tree and RID-Positive baselines, and the classic unsigned
source-detection methods (rumor centrality, Jordan center, distance
center) — and tabulates their precision/recall/F1 side by side.

Run:  python examples/rumor_forensics.py
"""

from repro import RID, RIDConfig, RIDPositiveDetector, RIDTreeDetector
from repro.detectors import DistanceCenterDetector, JordanCenterDetector
from repro.experiments.config import WorkloadConfig
from repro.experiments.reporting import format_table
from repro.experiments.workload import build_workload
from repro.metrics.identity import identity_metrics
from repro.metrics.state import state_metrics

SEED = 21


def main() -> None:
    workload = build_workload(
        WorkloadConfig(dataset="slashdot", scale=0.008, seed=SEED)
    )
    truth = set(workload.seeds)
    print(
        f"snapshot: {workload.infected.number_of_nodes()} infected users, "
        f"{len(truth)} true initiators (hidden from the detectors)"
    )

    detectors = [
        RIDTreeDetector(),
        RIDPositiveDetector(),
        RID(RIDConfig(beta=0.1)),
        RID(RIDConfig(beta=0.5)),
        RID(RIDConfig(beta=1.0)),
        JordanCenterDetector(),
        DistanceCenterDetector(),
    ]

    rows = []
    for detector in detectors:
        result = detector.detect(workload.infected)
        identity = identity_metrics(result.initiators, truth)
        state_note = "-"
        if result.states:
            states = state_metrics(result.states, workload.seeds)
            if states.evaluated:
                state_note = f"{states.accuracy:.2f}"
        rows.append(
            (
                result.method,
                len(result.initiators),
                identity.precision,
                identity.recall,
                identity.f1,
                state_note,
            )
        )

    print()
    print(
        format_table(
            headers=["method", "#detected", "precision", "recall", "F1", "state acc"],
            rows=rows,
            title="Rumor forensics on one infected snapshot",
        )
    )


if __name__ == "__main__":
    main()
