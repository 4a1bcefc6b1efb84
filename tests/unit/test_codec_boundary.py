"""Node ids, state maps, edges and graphs have one JSON home: ``repro.codec``.

``repro/codec.py`` is a leaf (it imports no repro module beyond the
error, type, validation and graph modules it encodes), no other module
defines the codec's functions again, and nothing imports a private
``_encode_node`` / ``_decode_node``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

CODEC_IMPORTS = {
    "repro.errors",
    "repro.types",
    "repro.utils.validation",
    "repro.graphs.signed_digraph",
}
CODEC_NAMES = {
    "encode_node",
    "decode_node",
    "encode_states",
    "decode_states",
    "encode_graph",
    "decode_graph",
}
PRIVATE_NAMES = {"_encode_node", "_decode_node"}


def modules():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC.parent).as_posix(), ast.parse(path.read_text())


def imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.module
        elif isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)


def defined_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
    for node in tree.body:
        if isinstance(node, ast.Assign):
            yield from (t.id for t in node.targets if isinstance(t, ast.Name))


def test_codec_imports_only_its_leaf_dependencies():
    tree = ast.parse((SRC / "codec.py").read_text())
    outside = {
        module
        for module in imported_modules(tree)
        if module.split(".")[0] == "repro" and module not in CODEC_IMPORTS
    }
    assert outside == set()


def test_no_other_module_defines_the_codec():
    found = sorted(
        (name, defined)
        for name, tree in modules()
        if name != "repro/codec.py"
        for defined in defined_names(tree)
        if defined in CODEC_NAMES
    )
    assert found == []


def test_no_module_imports_the_private_node_codec():
    found = sorted(
        (name, alias.name)
        for name, tree in modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name in PRIVATE_NAMES
    )
    assert found == []


def test_the_walk_reaches_the_package():
    names = [name for name, _ in modules()]
    assert "repro/codec.py" in names and len(names) > 50
