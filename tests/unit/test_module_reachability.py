"""Every library module is reached from a shipped entry point.

The walk follows ``src/repro``'s static import graph (every ``import`` and
``from ... import`` statement, lazy ones inside functions included, and
the detector registry's lazy ``"module:Class"`` references) from
``repro``, ``repro.__main__`` and the ``[project.scripts]`` modules.
Importing a submodule also runs its parent packages. A module nothing
reaches is dead weight, unless an example a user runs is its caller;
those few are listed with the example that keeps them.
"""

import ast
import re
from pathlib import Path
from typing import Dict, Set

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
#: A lazy ``"module:Class"`` reference, as the detector registry holds.
LAZY_REF = re.compile(r"^repro(\.\w+)+:\w+$")

#: Modules no entry point imports, each with the shipped example that
#: calls it.
ALLOWED_UNREACHED = {
    "repro.graphs.io": "examples/real_data_workflow.py",
    "repro.graphs.sampling": "examples/real_data_workflow.py",
    "repro.experiments.ascii_tree": "examples/quickstart.py",
}


def library_modules() -> Dict[str, Path]:
    modules = {}
    for path in (SRC / "repro").rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


def script_modules() -> Set[str]:
    """The modules named by ``pyproject.toml``'s ``[project.scripts]``."""
    text = (ROOT / "pyproject.toml").read_text()
    section = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    return set(re.findall(r'^\S+\s*=\s*"([\w.]+):\w+"', section, re.MULTILINE))


def imported_names(name: str, path: Path) -> Set[str]:
    """Dotted names one module's import statements mention."""
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")[: len(package.split(".")) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if LAZY_REF.match(node.value):
                names.add(node.value.partition(":")[0])
    return names


def reached_modules(modules: Dict[str, Path], entries: Set[str]) -> Set[str]:
    reached: Set[str] = set()
    todo = list(entries)
    while todo:
        parts = todo.pop().split(".")
        for depth in range(1, len(parts) + 1):
            name = ".".join(parts[:depth])
            if name in modules and name not in reached:
                reached.add(name)
                todo.extend(imported_names(name, modules[name]))
    return reached


def test_script_entry_points_are_found():
    assert script_modules() == {"repro.experiments.cli", "repro.serve.cli"}


def test_every_module_is_reached_or_has_a_named_caller():
    modules = library_modules()
    entries = {"repro", "repro.__main__"} | script_modules()
    unreached = set(modules) - reached_modules(modules, entries)
    assert unreached == set(ALLOWED_UNREACHED)


def test_allowed_modules_are_used_by_their_examples():
    for module, example in ALLOWED_UNREACHED.items():
        source = (ROOT / example).read_text()
        assert f"from {module} import" in source, (module, example)
