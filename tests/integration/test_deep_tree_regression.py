"""Deep path-tree detection under the default recursion limit.

The old recursive DP/binarize/Edmonds code could only survive a deep
(path-like) cascade tree by silently raising
``sys.setrecursionlimit`` process-wide. The compiled TreeDP kernel and
the explicit-stack rewrites must handle depth ≥ 5000 end-to-end with
the interpreter limit untouched.
"""

import sys

import pytest

from repro.core.binarize import binarize_cascade_tree
from repro.core.rid import RID, RIDConfig
from repro.graphs.generators.trees import path_graph
from repro.kernel.tree_dp import TreeDPKernel
from repro.types import NodeState

DEPTH = 5001


@pytest.fixture(scope="module")
def deep_path():
    graph = path_graph(DEPTH, sign=1, weight=0.9)
    for node in graph.nodes():
        graph.set_state(node, NodeState.POSITIVE)
    return graph


class TestDeepPathTree:
    def test_detection_completes_without_touching_recursion_limit(self, deep_path):
        limit_before = sys.getrecursionlimit()
        assert limit_before <= 10_000  # the old code would have bumped past this

        detector = RID(RIDConfig())
        result = detector.detect(deep_path)

        assert sys.getrecursionlimit() == limit_before
        # A consistent all-positive path is one cascade tree; its root is
        # the unique best single initiator (it explains every descendant).
        assert result.initiators == {0}
        assert result.states == {0: NodeState.POSITIVE}

    def test_deep_binarize_and_kernel_solve(self, deep_path):
        limit_before = sys.getrecursionlimit()
        binary = binarize_cascade_tree(deep_path, alpha=3.0)
        assert binary.size() == DEPTH  # a path needs no dummies
        assert binary.depth() == DEPTH

        result = TreeDPKernel(binary).solve(1)
        assert result.initiators == {0: NodeState.POSITIVE}
        assert result.score > 1.0  # root explains descendants, not just itself
        assert sys.getrecursionlimit() == limit_before
