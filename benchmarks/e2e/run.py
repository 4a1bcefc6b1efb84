#!/usr/bin/env python3
"""End-to-end, layer-attributed benchmark for detect, stream and serve.

Run from the repository root (the script puts ``src`` on ``sys.path``)::

    python3 benchmarks/e2e/run.py --workload epinions-s01-detect --seed 7
    python3 benchmarks/e2e/run.py --workload epinions-s01-detect --seed 7 --trace-out trace.json
    python3 benchmarks/e2e/run.py --workload all --repeat 5

``--trace 0`` (the default) measures the end-to-end metrics through the
public facade only: ``repro.detect``, ``StreamingDetectionEngine.step``
and HTTP against ``python -m repro serve``. ``--trace 1`` (implied by
``--trace-out``) is a separate run that wraps each pipeline layer's
public function and reports per-layer self time. Either way the run
prints a report, then one JSON line ``{"correct", "attempted",
"failed", "metrics"}`` carrying exactly the metrics ``BENCHMARK.json``
declares for that mode. A failed correctness check exits 1; a missing
program or any error exits 2 without a JSON line.

``--repeat N`` runs the benchmark N times with seeds ``seed..seed+N-1``
and prints each metric's median and quartiles, flagging any end-to-end
metric whose spread, (q3 - q1) / median, exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: Every run ends well inside the 180 s a run may take.
WATCHDOG_S = 170


def declared() -> Dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def provenance() -> str:
    from repro.kernel.backends import resolve_backend

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            # A checkout that is not a repository must not report an enclosing one.
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
        head = git.stdout.strip() if git.returncode == 0 else "unknown (not a git checkout)"
    except (OSError, subprocess.TimeoutExpired):
        head = "unknown (git unavailable)"
    return (
        f"nproc={os.cpu_count()} python={platform.python_version()} numpy={numpy_version} "
        f"backend={resolve_backend(None).name} git={head}"
    )


def self_time_table(tracer) -> List[str]:
    totals: Dict[str, List[float]] = {}
    selfs = tracer.self_times()
    for span in tracer.spans:
        entry = totals.setdefault(span.name, [0, 0.0])
        entry[0] += 1
        entry[1] += span.duration
    lines = [f"  {'span':<26} {'calls':>6} {'total_s':>10} {'self_s':>10}"]
    for name, (calls, total) in sorted(totals.items(), key=lambda kv: -selfs[kv[0]]):
        lines.append(f"  {name:<26} {calls:>6} {total:>10.4f} {selfs[name]:>10.4f}")
    return lines


def run_once(args) -> int:
    from speed import SpeedProbe
    from workloads import Run

    traced = bool(args.trace)
    bench = declared()
    wanted = bench["per_layer" if traced else "end_to_end"]
    why = next(w["why"] for w in bench["workloads"] if w["name"] == args.workload)
    probe = SpeedProbe()
    run = Run(args.workload, args.seed, args.seconds, args.scale, SRC, probe)
    print(f"workload: {args.workload} (seed {args.seed}, {args.seconds:g} s, "
          f"{'traced' if traced else 'untraced'}): {why}")
    print(f"provenance: {provenance()}")
    try:
        with probe:
            run.setup()
            if traced:
                run.attribute()
            else:
                run.measure()
    finally:
        run.close()
    out = run.out
    for line in out.report:
        print(line)
    if traced:
        print("self time by span (wall time, as in the trace file):")
        for line in self_time_table(run.tracer):
            print(line)
        if args.trace_out:
            with open(args.trace_out, "w", encoding="utf-8") as handle:
                json.dump(run.tracer.chrome(), handle)
            print(f"trace written to {args.trace_out}")
    metrics = {}
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        if name not in out.metrics:
            out.errors.append(f"metric {name} was not measured")
            continue
        value, measured_unit = out.metrics[name]
        if measured_unit != unit:
            out.errors.append(f"metric {name} measured in {measured_unit}, declared {unit}")
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:<30} {value:>14.6g} {unit}")
    for error in out.errors:
        print(f"CHECK FAILED: {error}")
    correct = not out.errors
    print(json.dumps({
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def repeat(args) -> int:
    """Run ``--repeat`` times per workload and summarise each metric."""
    from workloads import SPECS

    bench = declared()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = list(SPECS) if args.workload == "all" else [args.workload]
    summary, status = {}, 0
    for name in names:
        runs, walls = [], []
        for i in range(args.repeat):
            command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                       "--seed", str(args.seed + i), "--seconds", str(args.seconds),
                       "--trace", str(args.trace)]
            if args.scale is not None:
                command += ["--scale", str(args.scale)]
            start = time.perf_counter()
            done = subprocess.run(command, capture_output=True, text=True)
            walls.append(time.perf_counter() - start)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{name} seed {args.seed + i}: exit {done.returncode}")
                print(done.stdout + done.stderr)
                status = 1
                continue
            runs.append(json.loads(lines[-1]))
        if not runs:
            continue
        print(f"\n{name}: {len(runs)} runs, wall per run median {statistics.median(walls):.1f} s, "
              f"max {max(walls):.1f} s")
        print(f"  {'metric':<30} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        rows = {}
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            spread = (q3 - q1) / median if median else float("inf")
            bound = bounds.get(metric)
            flag = ""
            if bound is not None and spread > bound:
                flag = "  SPREAD EXCEEDS BOUND"
            elif bound is not None and spread > bound / 3:
                flag = "  spread above a third of the bound"
            print(f"  {metric:<30} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.3f} "
                  f"{'' if bound is None else bound:>6}{flag}")
            rows[metric] = {"median": median, "q1": q1, "q3": q3, "values": values}
        summary[name] = rows
    if args.repeat_out:
        with open(args.repeat_out, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=1)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="workload name (see BENCHMARK.json), or 'all' with --repeat")
    parser.add_argument("--seed", type=int, default=7, help="relabels node ids; see README")
    parser.add_argument("--seconds", type=float, default=20.0, help="measured phase length")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer run instead of end-to-end")
    parser.add_argument("--trace-out", help="write the traced run's spans as Chrome-trace JSON")
    parser.add_argument("--scale", type=float, help="override the dataset scale (smoke tests)")
    parser.add_argument("--repeat", type=int, help="run N times and summarise the spread")
    parser.add_argument("--repeat-out", help="with --repeat: write the summary as JSON")
    args = parser.parse_args(argv)
    if args.trace_out:
        args.trace = 1

    os.environ.pop("REPRO_KERNEL_BACKEND", None)
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as exc:
        print(f"cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        print(f"imported repro from {repro.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.repeat:
        return repeat(args)

    from workloads import SPECS

    if args.workload not in SPECS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(SPECS)}")

    def watchdog(signum, frame):
        raise TimeoutError(f"run exceeded {WATCHDOG_S} s")

    signal.signal(signal.SIGALRM, watchdog)
    signal.alarm(WATCHDOG_S)
    try:
        return run_once(args)
    except Exception:  # noqa: BLE001 — any error is a failed run, reported and non-zero
        traceback.print_exc()
        return 2
    finally:
        signal.alarm(0)


if __name__ == "__main__":
    sys.exit(main())
