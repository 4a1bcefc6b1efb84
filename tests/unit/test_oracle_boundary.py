"""The library never imports the test oracles.

Reference implementations live in ``tests/oracles/`` beside the identity
tests that use them. Importing every ``repro`` submodule in a fresh
interpreter must leave ``tests`` (and everything under it) unimported.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

PROBE = """
import importlib.util
import pkgutil
import sys

import repro

skip = set()
if importlib.util.find_spec("numpy") is None:
    skip.add("repro.kernel.backends.numpy_backend")
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    if info.name not in skip:
        __import__(info.name)
leaked = sorted(m for m in sys.modules if m == "tests" or m.startswith("tests."))
print("imported", len([m for m in sys.modules if m.startswith("repro")]))
print("leaked", leaked)
"""


def test_no_repro_module_imports_tests():
    # From the repository root, so a stray ``import tests...`` would succeed
    # and show up as a leak instead of an ImportError.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=env,
        cwd=str(ROOT),
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    ).stdout
    lines = dict(line.split(" ", 1) for line in out.strip().splitlines())
    assert int(lines["imported"]) > 50  # the walk really reached the package
    assert lines["leaked"] == "[]"
