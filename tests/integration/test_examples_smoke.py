"""Smoke tests: the shipped examples must run end to end.

Only the fast examples run here (the full set is exercised manually);
each is executed in a subprocess exactly as a user would run it.
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str, timeout: int = 600) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, f"{name} failed:\n{result.stderr[-2000:]}"
    return result.stdout


class TestExampleSmoke:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "RID detected" in out
        assert "precision=" in out
        assert "cascade tree" in out

    def test_real_data_workflow(self):
        out = run_example("real_data_workflow.py")
        assert "forest-fire sample: 800 nodes" in out
        assert "detection on the sampled real-format data" in out
        # The stand-in SNAP file's temporary directory is gone afterwards.
        written = out.split("wrote stand-in SNAP file: ", 1)[1].splitlines()[0]
        assert not Path(written).parent.exists()

    def test_custom_model(self):
        out = run_example("custom_model.py")
        assert "stubborn-majority" in out
        assert "model-mismatch" in out

    def test_cli_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "table2", "--scale", "0.002"],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert result.returncode == 0
        assert "Table II" in result.stdout
