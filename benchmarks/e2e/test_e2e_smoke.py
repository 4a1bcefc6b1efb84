"""Smoke test of the end-to-end benchmark at a tiny scale.

Runs every workload once at scale 0.002 (plus one traced run) through
the real command and checks the output contract: the correctness gate
passes, every metric ``BENCHMARK.json`` declares is present with its
unit, and the trace file parses. Run with::

    python -m pytest benchmarks/e2e

It is not part of the tier-1 suite (``testpaths = ["tests"]``).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.experiments.config import WorkloadConfig  # noqa: E402
from repro.experiments.workload import build_workload  # noqa: E402

import repro  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = ["--scale", "0.002", "--seconds", "1"]


def run(*args: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def assert_declared(result: dict, section: str) -> None:
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in BENCH[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_workload_reports_every_end_to_end_metric(workload):
    result = run("--workload", workload, "--seed", "3", *TINY)
    assert_declared(result, "end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_layers_and_writes_a_chrome_trace(tmp_path):
    trace = tmp_path / "trace.json"
    result = run("--workload", "epinions-s01-detect", "--seed", "3", *TINY,
                 "--trace-out", str(trace))
    assert_declared(result, "per_layer")
    events = json.loads(trace.read_text())["traceEvents"]
    names = {event["name"] for event in events}
    assert {"repro.detect", "core.arborescence", "kernel.tree_dp", "kernel.tree_curve"} <= names
    assert all(event["ph"] == "X" and event["dur"] >= 0 for event in events)


def test_build_world_matches_build_workload():
    spec = workloads.SPECS["slashdot-s01-stream"]
    world = workloads.build_world(spec, 0.002, 2, seed=5, tracer=Tracer("test"))
    new = workloads.relabeler(5)
    for trial, snapshot in enumerate(world.snapshots):
        reference = build_workload(
            WorkloadConfig(dataset=spec.dataset, scale=0.002, num_initiators=40,
                           seed=workloads.WORKLOAD_SEED),
            trial,
        )
        expected = workloads.relabel(reference.infected, new)
        assert sorted(snapshot.graph.nodes()) == sorted(expected.nodes())
        assert {(u, v, d.sign, d.weight) for u, v, d in snapshot.graph.iter_edges()} == {
            (u, v, d.sign, d.weight) for u, v, d in expected.iter_edges()
        }
        assert snapshot.planted == {new(n): s for n, s in reference.seeds.items()}


def test_seeds_relabel_without_changing_the_computation():
    spec = workloads.SPECS["epinions-s01-detect"]
    first, second = (
        workloads.build_world(spec, 0.002, 1, seed=seed, tracer=Tracer("test")).snapshots[0]
        for seed in (1, 99)
    )
    mapping = dict(zip(first.graph.nodes(), second.graph.nodes()))
    assert set(mapping) != set(mapping.values())
    a, b = repro.detect(first.graph), repro.detect(second.graph)
    assert {mapping[n]: s for n, s in a.states.items()} == b.states
    assert a.objective == b.objective
