"""The shared benchmark harness (``benchmarks/_harness.py``).

The graph digests and seed sets below were recorded from the per-script
graph and seed functions the harness replaced, at each gate's default
``--seed 7``: they pin every input the ``--tiny`` gates build, so a
drift here means a gate now checks different graphs than it used to.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks import _harness as harness
from repro.runtime.cache import graph_digest

ROOT = Path(__file__).resolve().parents[2]

#: (gate, n, m, RNG label, weight_low, weight_span) -> graph_digest.
GRAPHS = {
    ("kernel", 120, 900, "bench-kernel-graph", 0.02, 0.28):
        "b3f0119a6a43ca5fd797be6e3e1dc036",
    ("obs_overhead", 300, 2400, "bench-obs-graph", 0.02, 0.28):
        "09cd9fc1c249121f78764dc62106a655",
    ("backends", 300, 3000, "bench-backends-graph", 1.0, 0.0):
        "0c915b28d87dcb357235f2051c855952",
    ("backends", 200, 1000, "bench-backends-graph", 0.0, 0.0):
        "492f8fe0d8f17a733273a75650845f4b",
    ("mc_batch", 250, 2000, "bench-mc-batch-graph", 0.05, 0.25):
        "7ad7cd9ea627da32a880813eaa3a75eb",
    ("mc_batch", 300, 3000, "bench-mc-batch-graph", 1.0, 0.0):
        "bf8266194ebc407bcd21e2a5e555fc66",
    ("mc_batch", 200, 1000, "bench-mc-batch-graph", 0.0, 0.0):
        "b32102caf187bd3ae84072d9d2b4c343",
    ("mc_batch", 400, 4000, "bench-mc-batch-graph", 0.05, 0.25):
        "cacb673ef601cb51ffb4638ceee83f94",
}

#: (n, RNG label) -> the seed set as (node, state) pairs, in order.
SEEDS = {
    (120, "bench-seeds"): [
        (8, -1), (49, 1), (51, 1), (60, -1), (71, 1),
        (82, 1), (83, -1), (105, 1), (109, 1), (110, -1),
    ],
    (300, "bench-obs-seeds"): [
        (21, -1), (66, 1), (82, 1), (90, -1), (202, 1),
        (212, 1), (245, -1), (261, 1), (265, 1), (282, -1),
    ],
    (300, "bench-seeds"): [
        (34, -1), (35, 1), (54, 1), (68, -1), (199, 1),
        (207, 1), (219, -1), (243, 1), (285, 1), (290, -1),
    ],
    (200, "bench-seeds"): [
        (17, -1), (99, 1), (103, 1), (121, -1), (142, 1),
        (145, 1), (153, -1), (164, 1), (166, 1), (167, -1),
    ],
    (250, "bench-seeds"): [
        (17, -1), (99, 1), (103, 1), (121, -1), (142, 1),
        (164, 1), (211, -1), (219, 1), (221, 1), (245, -1),
    ],
    (400, "bench-seeds"): [
        (34, -1), (199, 1), (207, 1), (243, -1), (285, 1),
        (290, 1), (307, -1), (329, 1), (332, 1), (334, -1),
    ],
}


@pytest.mark.parametrize("spec", sorted(GRAPHS), ids=lambda s: "%s-%d-%d" % s[:3])
def test_tiny_gate_graphs_are_unchanged(spec):
    _, n, m, label, low, span = spec
    graph = harness.random_signed_digraph(n, m, 7, label, low, span)
    assert graph.number_of_nodes() == n and graph.number_of_edges() == m
    assert graph_digest(graph) == GRAPHS[spec]


@pytest.mark.parametrize("spec", sorted(SEEDS), ids=lambda s: "%s-%d" % s[::-1])
def test_tiny_gate_seed_sets_are_unchanged(spec):
    n, label = spec
    seeds = harness.seed_set(n, 7, label)
    assert [(node, int(state)) for node, state in seeds.items()] == SEEDS[spec]


def test_compiled_input_validates_the_bench_seeds():
    compiled, validated = harness.compiled_input(
        200, 1000, 7, "bench-backends-graph", weight_low=0.0, weight_span=0.0
    )
    assert (compiled.num_nodes, compiled.num_edges) == (200, 1000)
    assert validated == harness.seed_set(200, 7, "bench-seeds")


def test_best_of_returns_the_fastest_block(monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(harness.time, "perf_counter", lambda: clock[0])
    durations = iter([3.0, 1.0, 2.0])

    def block():
        clock[0] += next(durations)

    assert harness.best_of(block, 3) == 1.0


def test_timed_returns_seconds_and_value(monkeypatch):
    clock = iter([10.0, 12.5])
    monkeypatch.setattr(harness.time, "perf_counter", lambda: next(clock))
    assert harness.timed(lambda x, y=0: x + y, 2, y=3) == (2.5, 5)


def test_failing_gate_exits_1_and_writes_no_report(tmp_path, capsys):
    gate = harness.Gate()
    gate.check("holds", True)
    gate.check("breaks", False)
    gate.failures.append("also breaks")
    out = tmp_path / "report.json"
    assert gate.finish({"identity": "ok"}, str(out)) == 1
    assert not out.exists()
    assert capsys.readouterr().err.splitlines() == [
        "FAIL: breaks",
        "FAIL: also breaks",
    ]


def test_passing_gate_writes_a_sorted_report(tmp_path):
    out = tmp_path / "report.json"
    assert harness.Gate().finish({"b": 1, "a": [2]}, str(out)) == 0
    assert out.read_text() == '{\n  "a": [\n    2\n  ],\n  "b": 1\n}\n'


def test_a_failing_gate_script_exits_1_and_writes_no_report(tmp_path):
    # No overhead can beat a -1000% gate, so the check fails.
    out = tmp_path / "BENCH_obs_tiny.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [
            sys.executable,
            str(ROOT / "benchmarks" / "bench_obs_overhead.py"),
            "--tiny",
            "--cascades", "2",
            "--repeats", "1",
            "--max-overhead-pct", "-1000",
            "--out", str(out),
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("FAIL: NullRecorder overhead")
    assert not out.exists()
