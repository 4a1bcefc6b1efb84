#!/usr/bin/env python
"""Benchmark the detector zoo: accuracy vs budget, runtime vs size.

Full mode compares every budget-capable registry detector on shallow
multi-initiator cascades (sparse signed ER networks, MFC bounded to a
few rounds — the regime where source structure survives in the infected
snapshot) and on a size sweep:

* **accuracy-vs-k** — plant 8 initiators, detect with budgets
  ``k ∈ {8, 10, 12, 14}`` (clamped up to each detector's feasibility
  floor), score precision/recall/F1 against the planted ground truth,
  averaged over trials;
* **runtime-vs-n** — open-ended ``detect`` wall time on growing
  snapshots at roughly constant average degree.

Two accuracy orderings are asserted before the report is written:
RID stays the most accurate detector overall (it is the paper's
method), and the two estimator additions — suspect-prior MAP and
community multi-source — both beat the distance-center baseline on
sweep-mean F1. Writes ``BENCH_detectors.json``:

    PYTHONPATH=src python benchmarks/bench_detectors.py

``--tiny`` is the CI gate, seconds-scale and timing-free:

* registry-resolved ``'rid'`` must be bit-identical to a directly
  built ``RID(config)`` (open-ended and budgeted, ``to_json`` compare);
* served named-detector responses at ``workers=2`` must be
  bit-identical to direct in-process calls, and tier routing must
  follow the documented policy.
"""

from __future__ import annotations

import argparse
from typing import Dict, List, Optional, Set, Tuple

from _harness import Gate, canonical, timed
from repro.core.components import infected_components
from repro.core.rid import RID, RIDConfig
from repro.detectors import resolve_detector
from repro.diffusion.mfc import MFCModel
from repro.diffusion.seeds import plant_random_initiators
from repro.graphs.generators.random_graphs import signed_erdos_renyi
from repro.graphs.signed_digraph import SignedDiGraph
from repro.metrics import IdentityMetrics, identity_metrics
from repro.types import Node

#: (registry name, config) — every budget-capable detector in the zoo.
DETECTORS: List[Tuple[str, Optional[dict]]] = [
    ("rid", None),
    ("rumor_centrality", None),
    ("jordan_center", None),
    ("distance_center", None),
    ("map_suspect", {"trials": 12, "candidate_limit": 16}),
    ("multi_source", None),
]

BUDGETS = (8, 10, 12, 14)
PLANTED = 8


def shallow_workload(
    trial: int, n: int = 500, planted: int = PLANTED
) -> Tuple[SignedDiGraph, Set[Node]]:
    """A multi-initiator snapshot whose cascade stopped after 4 rounds."""
    network = signed_erdos_renyi(
        n, 2.0 / n, positive_probability=0.85, weight_range=(0.5, 0.9),
        rng=100 + trial,
    )
    seeds = plant_random_initiators(
        network, planted, positive_ratio=0.7, rng=200 + trial
    )
    cascade = MFCModel(alpha=3.0, max_rounds=4).run(network, seeds, rng=300 + trial)
    return cascade.infected_network(network), set(seeds)


def feasibility_floor(name: str, infected: SignedDiGraph) -> int:
    """The smallest budget a detector accepts on this snapshot."""
    if name == "rid":
        return len(RID(RIDConfig()).detect(infected).trees)
    return len(list(infected_components(infected)))


def bench_accuracy(trials: int) -> Dict[str, dict]:
    """Mean precision/recall/F1 per detector per budget."""
    samples: Dict[Tuple[str, int], List[IdentityMetrics]] = {}
    clamped: Dict[str, int] = {name: 0 for name, _ in DETECTORS}
    for trial in range(trials):
        infected, planted = shallow_workload(trial)
        floors = {
            name: feasibility_floor(name, infected) for name, _ in DETECTORS
        }
        for budget in BUDGETS:
            for name, config in DETECTORS:
                detector = resolve_detector(name, config)
                feasible = max(budget, floors[name])
                if feasible != budget:
                    clamped[name] += 1
                result = detector.detect_with_budget(infected, budget=feasible)
                samples.setdefault((name, budget), []).append(
                    identity_metrics(result.initiators, planted)
                )
    curves: Dict[str, dict] = {}
    for name, _ in DETECTORS:
        by_budget = {}
        for budget in BUDGETS:
            rows = samples[(name, budget)]
            by_budget[str(budget)] = {
                "precision": round(sum(r.precision for r in rows) / len(rows), 4),
                "recall": round(sum(r.recall for r in rows) / len(rows), 4),
                "f1": round(sum(r.f1 for r in rows) / len(rows), 4),
            }
        mean_f1 = sum(v["f1"] for v in by_budget.values()) / len(by_budget)
        curves[name] = {
            "by_budget": by_budget,
            "mean_f1": round(mean_f1, 4),
            "clamped_requests": clamped[name],
        }
    return curves


def bench_runtime(sizes: Tuple[int, ...], reps: int) -> Dict[str, dict]:
    """Cold open-ended detect wall time per detector per snapshot size.

    Initiators scale with ``n`` so the infected snapshot actually grows;
    a fresh detector per repetition keeps RID's artifact cache out of
    the measurement (this is the cold path, warm serving latency is
    ``bench_serve.py``'s job).
    """
    out: Dict[str, dict] = {name: {} for name, _ in DETECTORS}
    for n in sizes:
        infected, _ = shallow_workload(trial=0, n=n, planted=max(8, n // 40))
        label = str(infected.number_of_nodes())
        for name, config in DETECTORS:
            elapsed = sum(
                timed(resolve_detector(name, config).detect, infected)[0]
                for _ in range(reps)
            )
            out[name][label] = round(elapsed / reps, 5)
    return out


# ---------------------------------------------------------------------------
# Tiny mode: the CI identity gates
# ---------------------------------------------------------------------------


def gate_registry_rid_identity() -> None:
    """Registry 'rid' must be bit-identical to a directly built RID."""
    from repro.experiments.config import WorkloadConfig
    from repro.experiments.workload import build_workload

    workload = build_workload(
        WorkloadConfig(dataset="epinions", scale=0.003, seed=123)
    )
    config = RIDConfig(beta=0.8)
    direct = RID(config).detect(workload.infected)
    resolved = resolve_detector("rid", config).detect(workload.infected)
    if canonical(resolved.to_json()) != canonical(direct.to_json()):
        raise AssertionError("registry 'rid' diverged from direct RID(config)")
    budget = len(direct.trees) + 2
    direct_b = RID(config).detect_with_budget(workload.infected, budget=budget)
    resolved_b = resolve_detector("rid", config).detect_with_budget(
        workload.infected, budget=budget
    )
    if canonical(resolved_b.to_json()) != canonical(direct_b.to_json()):
        raise AssertionError("registry 'rid' budgeted path diverged")
    print(f"registry-rid identity: open-ended + budget={budget} ok")


def gate_served_named_identity() -> None:
    """Served named detectors at workers=2 must match direct calls."""
    from repro.detectors.registry import TIER_ROUTING
    from repro.serve import ServeClient, ServeConfig, start_in_thread

    infected, _ = shallow_workload(trial=1, n=120)
    named = [
        ("jordan_center", None),
        ("distance_center", None),
        ("multi_source", None),
        ("map_suspect", {"trials": 2, "candidate_limit": 4}),
    ]
    # The RID-Tree baselines cache their cascade trees in a private
    # engine: ask twice, so the second answer comes from the warm cache.
    cached = [("rid_tree", None), ("rid_positive", None)]
    config = ServeConfig(workers=2, timeout=120.0)
    with start_in_thread(config) as handle:
        with ServeClient(handle.url, timeout=120.0) as client:
            for name, cfg in named + cached:
                direct = resolve_detector(name, cfg).detect(infected)
                temperatures = ("cold", "hot") if (name, cfg) in cached else ("cold",)
                for temperature in temperatures:
                    payload = client.detect(
                        infected, detector=name, config=cfg, raw=True
                    )
                    if payload["detector"] != name:
                        raise AssertionError(
                            f"served detector echo {payload['detector']!r} != {name!r}"
                        )
                    report = payload["cache"]
                    if report["engine"] != temperature:
                        raise AssertionError(
                            f"served {name} ran on a {report['engine']} "
                            f"detector, expected {temperature}"
                        )
                    if temperature == "hot" and report["computed_artifacts"]:
                        raise AssertionError(
                            f"warm served {name} recomputed "
                            f"{report['computed_artifacts']} cached artifacts"
                        )
                    if canonical(payload["result"]) != canonical(direct.to_json()):
                        raise AssertionError(
                            f"served {name} ({temperature}) diverged from the direct call"
                        )
            for tier, expected in TIER_ROUTING.items():
                payload = client.detect(infected, tier=tier, raw=True)
                if payload["detector"] != expected:
                    raise AssertionError(
                        f"tier {tier!r} routed to {payload['detector']!r}, "
                        f"expected {expected!r}"
                    )
    print(
        f"served named-detector identity at workers=2: {len(named)} detectors, "
        f"{len(cached)} cold and warm, + tier routing ok"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tiny", action="store_true", help="CI identity gate")
    parser.add_argument("--trials", type=int, default=8)
    parser.add_argument("--reps", type=int, default=2)
    parser.add_argument("--out", default="BENCH_detectors.json")
    args = parser.parse_args()

    if args.tiny:
        gate_registry_rid_identity()
        gate_served_named_identity()
        print("tiny gate: identity ok (no accuracy or timing assertions)")
        return 0

    print(f"accuracy-vs-k: {len(DETECTORS)} detectors x {args.trials} trials "
          f"x budgets {list(BUDGETS)} ({PLANTED} planted initiators)")
    accuracy = bench_accuracy(args.trials)
    for name, curve in sorted(
        accuracy.items(), key=lambda kv: -kv[1]["mean_f1"]
    ):
        print(f"  {name:18s} mean f1 {curve['mean_f1']:.3f}  "
              + "  ".join(
                  f"k={k}:{v['f1']:.3f}" for k, v in curve["by_budget"].items()
              ))

    sizes = (200, 400, 800, 1600)
    print(f"runtime-vs-n: sizes {list(sizes)} (x{args.reps} reps)")
    runtime = bench_runtime(sizes, args.reps)
    for name, by_n in runtime.items():
        print(f"  {name:18s} " + "  ".join(
            f"n={n}:{s * 1000:.0f}ms" for n, s in by_n.items()
        ))

    gate = Gate()
    dc = accuracy["distance_center"]["mean_f1"]
    for name in ("map_suspect", "multi_source"):
        if accuracy[name]["mean_f1"] <= dc:
            gate.failures.append(
                f"{name} mean f1 {accuracy[name]['mean_f1']} <= distance_center {dc}"
            )
    best = max(accuracy, key=lambda name: accuracy[name]["mean_f1"])
    if best != "rid":
        gate.failures.append(f"rid is not the most accurate ({best} is)")

    report = {
        "tiny": False,
        "workload": {
            "generator": "signed_erdos_renyi, avg degree 2, weights 0.5-0.9",
            "model": "mfc(alpha=3, max_rounds=4)",
            "planted_initiators": PLANTED,
            "trials": args.trials,
            "budgets": list(BUDGETS),
            "note": "budgets are clamped up to each detector's feasibility "
            "floor (rid: tree count; others: component count); "
            "clamped_requests counts how often that happened",
        },
        "accuracy_vs_budget": accuracy,
        "runtime_vs_n_seconds": runtime,
        "assertions": {
            "rid_most_accurate": True,
            "map_suspect_beats_distance_center": True,
            "multi_source_beats_distance_center": True,
        },
    }
    return gate.finish(report, args.out)


if __name__ == "__main__":
    raise SystemExit(main())
