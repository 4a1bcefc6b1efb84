"""Command-line entry point: ``repro-experiments <artefact> [options]``.

Regenerates any of the paper's tables/figures from the terminal:

    repro-experiments table2 --scale 0.01
    repro-experiments fig4 --scale 0.01 --trials 3
    repro-experiments fig5 --scale 0.01
    repro-experiments fig6 --scale 0.01
    repro-experiments fig2
    repro-experiments lemma31
    repro-experiments ablations
    repro-experiments detect --scale 0.01
    repro-experiments detect --detector jordan_center
    repro-experiments evaluate --detector map_suspect --trials 3
    repro-experiments all --scale 0.005

Observability (see :mod:`repro.obs` and docs/observability.md):

    repro-experiments detect --metrics              # per-stage counter table
    repro-experiments fig4 --trace-out trace.json   # chrome://tracing file
"""

from __future__ import annotations

import argparse
import os
from typing import Optional, Sequence

from repro.experiments import (
    ablations,
    diffusion_analysis,
    fig2,
    fig4,
    fig5,
    fig6,
    lemma31,
    robustness,
    sweeps,
    table2,
)
from repro.obs import (
    CompositeRecorder,
    MetricsRecorder,
    NullRecorder,
    TraceRecorder,
    format_report,
    using_recorder,
)
from repro.runtime.config import RuntimeConfig

ARTEFACTS = (
    "table2",
    "fig2",
    "fig4",
    "fig5",
    "fig6",
    "lemma31",
    "ablations",
    "robustness",
    "diffusion",
    "sweeps",
    "detect",
    "detect-stream",
    "evaluate",
    "all",
)


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument schema."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the tables and figures of the ICDCS'17 "
        "rumor-initiator-detection paper.",
    )
    parser.add_argument("artefact", choices=ARTEFACTS, help="which artefact to regenerate")
    parser.add_argument(
        "--scale",
        type=float,
        default=0.01,
        help="fraction of the full dataset size to synthesise (default 0.01)",
    )
    parser.add_argument("--trials", type=int, default=2, help="trials to average over")
    parser.add_argument("--seed", type=int, default=7, help="master random seed")
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for trial fan-out (1 = serial; results are "
        "bit-identical either way)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="directory for the on-disk trial cache (default: no caching)",
    )
    parser.add_argument(
        "--backend",
        choices=("python", "numpy", "auto"),
        default=None,
        help="kernel execution backend for cascades and Monte-Carlo "
        "batches; detection has one implementation and ignores it "
        "(sets REPRO_KERNEL_BACKEND for this run; default: env or "
        "bit-identical python)",
    )
    parser.add_argument(
        "--detector",
        default=None,
        metavar="NAME",
        help="detect / detect-stream / evaluate: run this registry "
        "detector instead of RID (see repro.detectors.detector_names(); "
        "e.g. rumor_centrality, jordan_center, map_suspect)",
    )
    parser.add_argument(
        "--events",
        default=None,
        metavar="FILE",
        help="detect-stream: JSONL event log to replay (default: a "
        "synthetic stream)",
    )
    parser.add_argument(
        "--deltas",
        type=int,
        default=20,
        help="detect-stream: length of the synthetic stream when no "
        "--events file is given (default 20)",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="detect / detect-stream: persist the detection result as "
        "round-trip JSON (DetectionResult.to_json; loadable with "
        "DetectionResult.from_json)",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="collect per-stage counters and timings and print a report "
        "after the run",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="write a Chrome trace (chrome://tracing / Perfetto) of the run "
        "to FILE",
    )
    return parser


def run_detect(
    scale: float,
    seed: int,
    runtime: Optional[RuntimeConfig] = None,
    out: Optional[str] = None,
    detector: Optional[str] = None,
) -> None:
    """One end-to-end plant → spread → detect run via the stable facade.

    The smallest artefact that exercises every instrumented stage —
    handy with ``--metrics`` / ``--trace-out``. ``--workers N`` fans the
    detection pipeline's per-component/per-tree work units over the
    process pool; ``--cache-dir`` persists stage artifacts across
    invocations. ``--out FILE`` writes the result in the stable
    round-trip codec (``DetectionResult.to_json``) instead of an ad-hoc
    summary dump.
    """
    from repro import api
    from repro.experiments.config import WorkloadConfig
    from repro.experiments.reporting import save_json
    from repro.experiments.workload import build_workload
    from repro.metrics.identity import identity_metrics

    config = WorkloadConfig(dataset="epinions", scale=scale, seed=seed)
    workload = build_workload(config, trial=0)
    result = api.detect(workload.infected, detector=detector, runtime=runtime)
    scores = identity_metrics(result.initiators, set(workload.seeds))
    print(
        f"detect [{result.method}]: "
        f"{workload.infected.number_of_nodes()} infected nodes, "
        f"{len(workload.seeds)} planted, {len(result.initiators)} detected "
        f"(precision {scores.precision:.3f}, recall {scores.recall:.3f}, "
        f"f1 {scores.f1:.3f})"
    )
    if out is not None:
        save_json(result.to_json(), out)
        print(f"result written to {out} (DetectionResult.from_json round-trips it)")


def run_detect_stream(
    events: Optional[str],
    deltas: int,
    seed: int,
    runtime: Optional[RuntimeConfig] = None,
    out: Optional[str] = None,
    detector: Optional[str] = None,
) -> None:
    """Replay an event log (or a synthetic stream), printing per-delta
    latency and artifact reuse.

    Each line shows the incremental re-detection's wall time next to the
    touched-node and dirty-component counts; on small deltas most
    components resolve to artifact-cache hits (the ``reused`` column)
    and only the dirty ones pay for Arborescence/TreeDP. ``--out FILE``
    persists the final detection in the stable round-trip codec plus a
    per-delta latency/reuse table.
    """
    import time

    from repro.core.rid import RID
    from repro.stream import (
        StreamingDetectionEngine,
        read_event_log,
        synthetic_stream,
    )

    if events is not None:
        log = read_event_log(events)
        if log.snapshot is None:
            raise SystemExit(
                f"{events}: event log has no snapshot record; detect-stream "
                "needs a self-contained log"
            )
        snapshot, stream = log.snapshot, log.deltas
        source = events
    else:
        snapshot, stream = synthetic_stream(
            components=6, size=14, deltas=deltas, seed=seed
        )
        source = f"synthetic ({len(stream)} deltas, seed {seed})"
    print(
        f"stream: {source}; initial snapshot "
        f"{snapshot.number_of_nodes()} nodes, {snapshot.number_of_edges()} edges"
    )
    engine = StreamingDetectionEngine(snapshot, detector=detector, runtime=runtime)
    steps, latencies = [], []
    for delta in stream:
        start = time.perf_counter()
        step = engine.step(delta)
        elapsed = time.perf_counter() - start
        steps.append(step)
        latencies.append(elapsed)
        r = step.report
        print(
            f"delta {r.delta_index:>3}: {elapsed * 1000:8.2f} ms  "
            f"touched={r.touched_nodes:<4} dirty={r.invalidated_components:<3} "
            f"components={r.total_components:<4} "
            f"reused={step.reused_artifacts:<4} computed={step.computed_artifacts:<4} "
            f"initiators={len(step.result.initiators)}"
        )
    if isinstance(engine.detector, RID):  # only RID's incremental path caches
        stats = engine.detector.cache.stats()
        print(
            f"artifact cache: {stats['hits']} hits / {stats['misses']} misses "
            f"({stats['entries']} entries)"
        )
    if out is not None and steps:
        from repro.experiments.reporting import save_json

        save_json(
            {
                "final": steps[-1].result.to_json(),
                "deltas": [
                    {
                        "index": step.report.delta_index,
                        "seconds": lat,
                        "touched_nodes": step.report.touched_nodes,
                        "dirty_components": step.report.invalidated_components,
                        "reused_artifacts": step.reused_artifacts,
                        "computed_artifacts": step.computed_artifacts,
                    }
                    for step, lat in zip(steps, latencies)
                ],
            },
            out,
        )
        print(f"final result written to {out}")


def run_evaluate(
    scale: float,
    trials: int,
    seed: int,
    runtime: Optional[RuntimeConfig] = None,
    detector: Optional[str] = None,
) -> None:
    """Trial-averaged scoring of one named detector via the facade.

    ``--detector NAME`` picks any registry entry (default RID); scores
    are averaged over ``--trials`` derived workloads.
    """
    from repro import api
    from repro.experiments.config import WorkloadConfig

    name = detector if detector is not None else "rid"
    config = WorkloadConfig(dataset="epinions", scale=scale, seed=seed)
    scores = api.evaluate(name, config, runtime, trials=trials)
    accuracy = "-" if scores.accuracy is None else f"{scores.accuracy:.3f}"
    print(
        f"evaluate [{scores.method}]: {scores.trials} trials, "
        f"precision {scores.precision:.3f}, recall {scores.recall:.3f}, "
        f"f1 {scores.f1:.3f}, state accuracy {accuracy}, "
        f"{scores.seconds:.2f}s/trial"
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Dispatch to the requested experiment module."""
    args = build_parser().parse_args(argv)
    runtime = RuntimeConfig(workers=args.workers, cache_dir=args.cache_dir)
    runtime.validate()
    if args.backend is not None:
        # The env var is the one switch every entry point (and every
        # worker process, which inherits the environment) honours.
        os.environ["REPRO_KERNEL_BACKEND"] = args.backend

    metrics_recorder = MetricsRecorder() if args.metrics else None
    trace_recorder = TraceRecorder() if args.trace_out else None
    sinks = [r for r in (metrics_recorder, trace_recorder) if r is not None]
    if len(sinks) > 1:
        recorder = CompositeRecorder(*sinks)
    elif sinks:
        recorder = sinks[0]
    else:
        recorder = NullRecorder()

    with using_recorder(recorder):
        if args.artefact in ("table2", "all"):
            table2.main(scale=args.scale, seed=args.seed)
        if args.artefact in ("fig2", "all"):
            fig2.main(seed=args.seed, runtime=runtime)
        if args.artefact in ("fig4", "all"):
            fig4.main(scale=args.scale, trials=args.trials, seed=args.seed, runtime=runtime)
        if args.artefact in ("fig5", "all"):
            fig5.main(scale=args.scale, trials=args.trials, seed=args.seed, runtime=runtime)
        if args.artefact in ("fig6", "all"):
            fig6.main(scale=args.scale, trials=args.trials, seed=args.seed, runtime=runtime)
        if args.artefact in ("lemma31", "all"):
            lemma31.main(seed=args.seed)
        if args.artefact in ("ablations", "all"):
            ablations.main(seed=args.seed)
        if args.artefact in ("robustness", "all"):
            robustness.main(seed=args.seed, scale=args.scale)
        if args.artefact in ("diffusion", "all"):
            diffusion_analysis.main(scale=args.scale, trials=args.trials, seed=args.seed)
        if args.artefact in ("sweeps", "all"):
            sweeps.main(seed=args.seed, scale=args.scale)
        if args.artefact == "detect":
            run_detect(
                scale=args.scale,
                seed=args.seed,
                runtime=runtime,
                out=args.out,
                detector=args.detector,
            )
        if args.artefact == "detect-stream":
            run_detect_stream(
                events=args.events,
                deltas=args.deltas,
                seed=args.seed,
                runtime=runtime,
                out=args.out,
                detector=args.detector,
            )
        if args.artefact == "evaluate":
            run_evaluate(
                scale=args.scale,
                trials=args.trials,
                seed=args.seed,
                runtime=runtime,
                detector=args.detector,
            )

    if metrics_recorder is not None:
        print()
        print(format_report(metrics_recorder.metrics, title=f"{args.artefact} observability"))
    if trace_recorder is not None:
        trace_recorder.export_chrome(args.trace_out)
        print(f"trace written to {args.trace_out} (open in chrome://tracing)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
