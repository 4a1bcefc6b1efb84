"""ASCII rendering of cascade trees.

Terminal-friendly visualisation for examples and debugging: draws an
extracted cascade tree with each node's opinion state and each
activation link's sign/weight, e.g.::

    r [+]
    ├─(+0.90)→ a [+]
    │  └─(+0.45)→ c [+]
    └─(-0.40)→ b [-]

Purely cosmetic — no detection logic depends on this module.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.binarize import find_tree_root
from repro.graphs.signed_digraph import SignedDiGraph
from repro.types import Node, NodeState

_STATE_GLYPH = {
    NodeState.POSITIVE: "+",
    NodeState.NEGATIVE: "-",
    NodeState.INACTIVE: "0",
    NodeState.UNKNOWN: "?",
}


def _node_label(tree: SignedDiGraph, node: Node) -> str:
    return f"{node} [{_STATE_GLYPH[tree.state(node)]}]"


def render_cascade_tree(
    tree: SignedDiGraph,
    root: Optional[Node] = None,
    max_depth: Optional[int] = None,
    max_children: Optional[int] = None,
) -> str:
    """Render a rooted cascade tree as indented ASCII art.

    Args:
        tree: an arborescence (e.g. one of
            :meth:`repro.core.rid.RID.forest`'s trees).
        root: starting node; auto-detected when omitted.
        max_depth: truncate below this depth (``...`` marks cuts).
        max_children: show at most this many children per node.

    Raises:
        NotATreeError: when the root cannot be auto-detected.
    """
    if root is None:
        root = find_tree_root(tree)
    lines: List[str] = [_node_label(tree, root)]

    def walk(node: Node, prefix: str, depth: int) -> None:
        if max_depth is not None and depth >= max_depth:
            children = tree.successors(node)
            if children:
                lines.append(f"{prefix}└─ ... ({len(children)} subtrees pruned)")
            return
        children = sorted(tree.successors(node), key=repr)
        shown = children
        overflow = 0
        if max_children is not None and len(children) > max_children:
            shown = children[:max_children]
            overflow = len(children) - max_children
        for index, child in enumerate(shown):
            last = index == len(shown) - 1 and overflow == 0
            connector = "└─" if last else "├─"
            data = tree.edge(node, child)
            sign = "+" if int(data.sign) > 0 else "-"
            lines.append(
                f"{prefix}{connector}({sign}{data.weight:.2f})→ "
                f"{_node_label(tree, child)}"
            )
            extension = "   " if last else "│  "
            walk(child, prefix + extension, depth + 1)
        if overflow:
            lines.append(f"{prefix}└─ ... (+{overflow} more children)")

    walk(root, "", 0)
    return "\n".join(lines)


def render_forest(
    trees: List[SignedDiGraph],
    max_trees: Optional[int] = None,
    **kwargs,
) -> str:
    """Render several cascade trees, largest first."""
    ordered = sorted(trees, key=lambda t: t.number_of_nodes(), reverse=True)
    if max_trees is not None:
        ordered = ordered[:max_trees]
    blocks = []
    for index, tree in enumerate(ordered):
        blocks.append(f"--- cascade tree {index} ({tree.number_of_nodes()} nodes) ---")
        blocks.append(render_cascade_tree(tree, **kwargs))
    return "\n".join(blocks)
