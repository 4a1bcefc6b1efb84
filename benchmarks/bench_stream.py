#!/usr/bin/env python
"""Benchmark incremental streaming re-detection against cold re-detection.

Builds a multi-component infected snapshot (≥12 components, ≥2k nodes in
the default configuration), then replays small **1%-node-churn deltas**
— each delta flips/recovers ~1% of all nodes, localised to one component
per delta the way real rumor traffic clusters, plus a little edge churn.
After every delta both paths re-detect:

* **cold** — a fresh ``RID`` detector on the materialised snapshot
  (empty artifact cache: full Prune→Components→Arborescence→TreeDP);
* **streamed** — ``StreamingDetectionEngine.step``: incremental
  partition repair + re-detection reusing every untouched component's
  cached artifacts.

The benchmark asserts bit-identity between the two after every delta
and, in full mode, that the **median per-delta speedup is ≥ 5x**, with
``stream.reused_artifacts`` confirming untouched components skipped
Arborescence/TreeDP. Results land in JSON (default ``BENCH_stream.json``).

    PYTHONPATH=src python benchmarks/bench_stream.py

``--tiny`` is the CI identity gate: a seconds-scale replay of a rich
synthetic event log (merges, recoveries, fresh nodes, removals, edge
churn) checked for bit-identity after every delta — no timing
assertions (CI boxes are noisy).
"""

from __future__ import annotations

import argparse
import statistics

from _harness import Gate, results_equal, timed
from repro.core.rid import RID, RIDConfig
from repro.graphs.signed_digraph import SignedDiGraph
from repro.obs import MetricsRecorder
from repro.stream import (
    SnapshotDelta,
    StreamingDetectionEngine,
    apply_delta,
    synthetic_snapshot,
    synthetic_stream,
)
from repro.types import NodeState
from repro.utils.rng import spawn_rng


def churn_deltas(
    snapshot: SignedDiGraph, components: int, count: int, churn: float, seed: int
):
    """``count`` deltas, each touching ~``churn * nodes`` nodes of ONE
    component (rotating), mixing sign flips with a recovery and one
    edge remove + one consistent edge add. Valid by construction: the
    generator tracks a live copy.
    """
    rng = spawn_rng(seed, "bench-stream-deltas")
    live = snapshot.copy()
    per_delta = max(1, int(round(churn * snapshot.number_of_nodes())))
    deltas = []
    for index in range(count):
        in_comp = [n for n in live.active_nodes() if n // 10**6 == index % components]
        delta = SnapshotDelta()
        picked = set()
        for slot in range(min(per_delta, len(in_comp))):
            node = in_comp[rng.randrange(len(in_comp))]
            if node in picked:
                continue
            picked.add(node)
            if slot == 0 and index % 2 == 1:
                delta.states[node] = NodeState.INACTIVE
            else:
                delta.states[node] = NodeState(-int(live.state(node)))
        comp_edges = [
            (u, v) for u, v, _ in live.edges() if u // 10**6 == v // 10**6 == index % components
        ]
        if comp_edges:
            delta.remove_edges.append(comp_edges[rng.randrange(len(comp_edges))])
        candidates = [n for n in in_comp if n not in picked]
        if len(candidates) >= 2:
            u = candidates[rng.randrange(len(candidates))]
            v = candidates[rng.randrange(len(candidates))]
            if u != v and not live.has_edge(u, v) and (u, v) not in delta.remove_edges:
                sign = int(live.state(u)) * int(live.state(v))
                delta.add_edges.append((u, v, sign, round(rng.uniform(0.1, 0.9), 6)))
        apply_delta(live, delta)
        deltas.append(delta)
    return deltas


def replay(snapshot, deltas, config, check_identity=True):
    """Replay the stream; returns (per-delta streamed s, per-delta cold s,
    recorder, failures)."""
    recorder = MetricsRecorder()
    engine = StreamingDetectionEngine(snapshot, detector=RID(config))
    engine.detect(recorder=recorder)  # warm start, as a live service would be
    streamed_s, cold_s, failures = [], [], []
    for index, delta in enumerate(deltas):
        seconds, step = timed(engine.step, delta, recorder=recorder)
        streamed_s.append(seconds)

        materialised = engine.materialise()
        if materialised.number_of_nodes():
            # A fresh detector (built inside the timed call): cold cache.
            seconds, want = timed(lambda: RID(config).detect(materialised))
        else:
            seconds, want = 0.0, None
        cold_s.append(seconds)

        if check_identity:
            if want is None:
                ok = not step.result.initiators
            else:
                ok = results_equal(step.result, want)
            if not ok:
                failures.append(f"delta {index}: streamed != cold")
    return streamed_s, cold_s, recorder, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tiny", action="store_true", help="CI smoke: identity only")
    parser.add_argument("--components", type=int, default=16)
    parser.add_argument("--size", type=int, default=160, help="nodes per component")
    parser.add_argument("--deltas", type=int, default=20)
    parser.add_argument("--churn", type=float, default=0.01, help="nodes touched per delta")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", default="BENCH_stream.json")
    args = parser.parse_args(argv)

    config = RIDConfig()
    if args.tiny:
        # Rich transitions (merges, recoveries, fresh/removed nodes) on a
        # small graph: the bit-identity gate, not a timing run.
        snapshot, deltas = synthetic_stream(components=8, size=12, deltas=8, seed=args.seed)
    else:
        snapshot = synthetic_snapshot(args.components, args.size, seed=args.seed)
        deltas = churn_deltas(snapshot, args.components, args.deltas, args.churn, args.seed)

    print(
        f"snapshot: {snapshot.number_of_nodes()} nodes, "
        f"{snapshot.number_of_edges()} edges; {len(deltas)} deltas "
        f"({'tiny synthetic stream' if args.tiny else f'{args.churn:.0%} node churn, component-local'})"
    )

    streamed_s, cold_s, recorder, failures = replay(snapshot, deltas, config)
    gate = Gate()
    gate.failures += failures
    if gate.failures:
        return gate.finish()
    print(f"identity: OK (streamed == cold after each of {len(deltas)} deltas)")

    counters = recorder.metrics.counters
    reused = counters.get("stream.reused_artifacts", 0)
    computed = counters.get("stream.computed_artifacts", 0)
    report = {
        "snapshot": {
            "nodes": snapshot.number_of_nodes(),
            "edges": snapshot.number_of_edges(),
            "components": args.components,
            "seed": args.seed,
        },
        "deltas": len(deltas),
        "churn": args.churn,
        "identity": "ok",
        "stream_counters": {
            "reused_artifacts": reused,
            "computed_artifacts": computed,
            "dirty_components": counters.get("stream.dirty_components", 0),
            "delta_nodes": counters.get("stream.delta.nodes", 0),
        },
        "tiny": bool(args.tiny),
    }

    if not args.tiny:
        speedups = [c / s for c, s in zip(cold_s, streamed_s)]
        median_speedup = statistics.median(speedups)
        report["timings"] = {
            "streamed_total_s": round(sum(streamed_s), 6),
            "cold_total_s": round(sum(cold_s), 6),
            "streamed_median_s": round(statistics.median(streamed_s), 6),
            "cold_median_s": round(statistics.median(cold_s), 6),
            "per_delta_speedup_min": round(min(speedups), 3),
            "per_delta_speedup_max": round(max(speedups), 3),
        }
        report["median_speedup"] = round(median_speedup, 3)
        report["speedup_note"] = (
            "per-delta wall time: StreamingDetectionEngine.step (partition "
            "repair + cached re-detection) vs a fresh cold RID detect "
            "run on the materialised snapshot"
        )
        print(
            f"per delta: streamed median {statistics.median(streamed_s) * 1000:.2f} ms, "
            f"cold median {statistics.median(cold_s) * 1000:.2f} ms "
            f"-> median speedup {median_speedup:.2f}x "
            f"(min {min(speedups):.2f}x, max {max(speedups):.2f}x)"
        )
        print(
            f"artifacts: {reused} reused vs {computed} computed "
            f"(untouched components skipped Arborescence/TreeDP)"
        )
        if median_speedup < 5.0:
            gate.failures.append(f"median speedup {median_speedup:.2f}x < 5x")
        if reused <= computed:
            gate.failures.append(f"artifacts reused {reused} <= computed {computed}")

    return gate.finish(report, args.out)


if __name__ == "__main__":
    raise SystemExit(main())
