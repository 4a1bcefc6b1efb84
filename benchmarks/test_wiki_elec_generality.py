"""Benchmark WG — generality check on a third signed network.

The paper evaluates on Epinions and Slashdot; wiki-Elec (Wikipedia
adminship votes) is the third classic signed network of the measurement
literature, with a very different shape: small, dense (mean degree ~15,
2-3x the paper's datasets), status-driven and almost perfectly
non-reciprocal. The pipeline must run unchanged there; the measured
finding (recorded in EXPERIMENTS.md) is that on such dense networks the
infected snapshot is one saturated blob — nearly every planted
initiator is camouflaged behind boost-saturated in-links, detection
degrades to the two or three genuine roots, and β has nothing left to
trade. A negative but informative generality result.
"""

from benchmarks.conftest import BENCH_SEED
from repro.core.rid import RID, RIDConfig
from repro.detectors import RIDTreeDetector
from repro.experiments.config import WorkloadConfig
from repro.experiments.reporting import format_table, save_json
from repro.experiments.workload import build_workload
from repro.metrics.identity import identity_metrics


def test_wiki_elec_generality(benchmark, results_dir):
    workload = build_workload(
        WorkloadConfig(dataset="wiki-elec", scale=0.05, seed=BENCH_SEED)
    )
    truth = set(workload.seeds)

    def run_lineup():
        rows = {}
        tree = RIDTreeDetector().detect(workload.infected)
        rows["rid-tree"] = (len(tree.initiators), identity_metrics(tree.initiators, truth))
        for beta in (0.1, 1.0):
            result = RID(RIDConfig(beta=beta)).detect(workload.infected)
            rows[f"rid({beta})"] = (
                len(result.initiators),
                identity_metrics(result.initiators, truth),
            )
        return rows

    rows = benchmark.pedantic(run_lineup, rounds=1, iterations=1)
    print()
    print(
        format_table(
            headers=["method", "#detected", "precision", "recall", "F1"],
            rows=[
                (method, detected, m.precision, m.recall, m.f1)
                for method, (detected, m) in rows.items()
            ],
            title=f"wiki-Elec generality ({workload.infected.number_of_nodes()} "
            f"infected, {len(truth)} true)",
        )
    )
    save_json(
        {
            method: {"detected": d, "precision": m.precision, "recall": m.recall, "f1": m.f1}
            for method, (d, m) in rows.items()
        },
        results_dir / "wiki_elec_generality.json",
    )

    tree_detected, tree_metrics = rows["rid-tree"]
    low_detected, _ = rows["rid(0.1)"]
    high_detected, _ = rows["rid(1.0)"]
    # The qualitative pipeline behaviours transfer:
    assert tree_metrics.precision >= 0.5
    assert low_detected >= high_detected  # β still controls fragmentation
    assert high_detected >= 1