"""Unit tests for the general-tree -> binary-tree transform (Fig. 3)."""

import pytest

from repro.core.binarize import (
    BinaryCascadeTree,
    binarize_cascade_tree,
    find_tree_root,
)
from repro.errors import NotATreeError
from repro.graphs.generators.trees import random_general_tree
from repro.graphs.signed_digraph import SignedDiGraph
from repro.types import NodeState


def make_star(n_children: int) -> SignedDiGraph:
    g = SignedDiGraph()
    g.add_node("r", NodeState.POSITIVE)
    for i in range(n_children):
        g.add_edge("r", f"c{i}", 1, 0.4)
        g.set_state(f"c{i}", NodeState.POSITIVE)
    return g


class TestFindTreeRoot:
    def test_finds_unique_root(self, small_cascade_tree):
        assert find_tree_root(small_cascade_tree) == "r"

    def test_rejects_forest(self):
        g = SignedDiGraph()
        g.add_nodes(["a", "b"])
        with pytest.raises(NotATreeError):
            find_tree_root(g)

    def test_rejects_cycle(self):
        g = SignedDiGraph()
        g.add_edge("a", "b", 1, 0.5)
        g.add_edge("b", "a", 1, 0.5)
        with pytest.raises(NotATreeError):
            find_tree_root(g)


class TestBinarizeSmallCases:
    def test_single_node(self):
        g = SignedDiGraph()
        g.add_node("x", NodeState.NEGATIVE)
        binary = binarize_cascade_tree(g, alpha=3.0)
        assert binary.num_real == 1
        assert binary.size() == 1
        root = binary.node(binary.root)
        assert root.original == "x"
        assert root.state is NodeState.NEGATIVE
        assert root.g_in == 1.0

    def test_two_children_need_no_dummies(self):
        binary = binarize_cascade_tree(make_star(2), alpha=3.0)
        assert binary.size() == 3
        assert binary.num_real == 3
        assert not any(n.is_dummy for n in binary.nodes)

    def test_three_children_insert_dummies(self):
        binary = binarize_cascade_tree(make_star(3), alpha=3.0)
        assert binary.num_real == 4
        dummies = [n for n in binary.nodes if n.is_dummy]
        assert len(dummies) >= 1
        # Every slot respects the binary fan-out.
        for node in binary.nodes:
            children = [c for c in (node.left, node.right) if c is not None]
            assert len(children) <= 2

    def test_empty_tree_rejected(self):
        with pytest.raises(NotATreeError):
            binarize_cascade_tree(SignedDiGraph(), alpha=3.0)

    def test_multi_parent_rejected(self):
        g = SignedDiGraph()
        g.add_edge("a", "c", 1, 0.5)
        g.add_edge("b", "c", 1, 0.5)
        with pytest.raises(NotATreeError):
            binarize_cascade_tree(g, alpha=3.0)


class TestDummySemantics:
    def test_dummies_inherit_parent_state(self):
        star = make_star(5)
        star.set_state("r", NodeState.NEGATIVE)
        binary = binarize_cascade_tree(star, alpha=3.0)
        for node in binary.nodes:
            if node.is_dummy:
                assert node.state is NodeState.NEGATIVE

    def test_dummy_incoming_edges_transparent(self):
        binary = binarize_cascade_tree(make_star(7), alpha=3.0)
        for node in binary.nodes:
            if node.is_dummy:
                assert node.g_in == 1.0

    def test_real_children_keep_original_g(self):
        # r(+) -> c(+) via positive 0.4 at alpha 3 => g = min(1, 1.2) = 1.0;
        # use weight 0.2 to get a non-saturated value.
        g = SignedDiGraph()
        g.add_node("r", NodeState.POSITIVE)
        for i in range(4):
            g.add_edge("r", f"c{i}", 1, 0.2)
            g.set_state(f"c{i}", NodeState.POSITIVE)
        binary = binarize_cascade_tree(g, alpha=3.0)
        real_children = [n for n in binary.nodes if n.original and n.original != "r"]
        assert all(n.g_in == pytest.approx(0.6) for n in real_children)

    def test_root_to_node_g_product_preserved(self):
        """Binarisation must not distort path products (Fig. 3 requirement)."""
        from tests.oracles.tree_dp import RecursiveTreeDP

        tree = random_general_tree(25, max_children=6, rng=3)
        for node in tree.nodes():
            tree.set_state(node, NodeState.POSITIVE)
        binary = binarize_cascade_tree(tree, alpha=2.0)
        solver = RecursiveTreeDP(binary)

        # Expected: direct product of g factors along the original tree.
        from repro.core.likelihood import g_link

        def direct_product(node):
            product = 1.0
            current = node
            while True:
                parents = tree.predecessors(current)
                if not parents:
                    return product
                parent = parents[0]
                data = tree.edge(parent, current)
                product *= g_link(
                    tree.state(parent), data.sign, tree.state(current), data.weight, 2.0
                )
                current = parent

        by_original = {n.original: n.uid for n in binary.nodes if not n.is_dummy}
        root_uid = by_original[0]
        for node in tree.nodes():
            expected = direct_product(node)
            actual = solver.path_product(root_uid, by_original[node])
            assert actual == pytest.approx(expected)


class TestStructuralInvariants:
    @pytest.mark.parametrize("size,max_children", [(1, 3), (5, 4), (30, 8), (60, 3)])
    def test_real_node_count_preserved(self, size, max_children):
        tree = random_general_tree(size, max_children=max_children, rng=size)
        for node in tree.nodes():
            tree.set_state(node, NodeState.POSITIVE)
        binary = binarize_cascade_tree(tree, alpha=3.0)
        assert binary.num_real == size
        assert len(binary.real_nodes()) == size

    def test_parent_child_links_consistent(self):
        tree = random_general_tree(40, max_children=6, rng=11)
        for node in tree.nodes():
            tree.set_state(node, NodeState.POSITIVE)
        binary = binarize_cascade_tree(tree, alpha=3.0)
        for node in binary.nodes:
            for child in (node.left, node.right):
                if child is not None:
                    assert binary.node(child).parent == node.uid

    def test_depth_reasonable(self):
        binary = binarize_cascade_tree(make_star(16), alpha=3.0)
        # 16 children fan out through ceil(log2(16)) = 4 dummy levels max.
        assert binary.depth() <= 2 + 5
