"""Unit tests for the compiled flat-array TreeDP kernel."""

import pytest

from repro.core.binarize import binarize_cascade_tree
from repro.errors import DynamicProgramError
from repro.graphs.generators.trees import random_general_tree
from repro.graphs.signed_digraph import SignedDiGraph
from repro.kernel import TreeDPKernel, compile_binary_tree
from repro.types import NodeState
from repro.utils.rng import spawn_rng
from tests.oracles.tree_dp import RecursiveTreeDP


def _stated_tree(n, seed=0, max_children=3):
    tree = random_general_tree(n, max_children=max_children, rng=seed)
    rng = spawn_rng(seed, "states")
    for node in tree.nodes():
        tree.set_state(
            node, NodeState.POSITIVE if rng.random() < 0.6 else NodeState.NEGATIVE
        )
    return tree


def _binary(n, seed=0, **kwargs):
    return binarize_cascade_tree(_stated_tree(n, seed, **kwargs), alpha=3.0)


class TestCompiledBinaryTree:
    def test_postorder_children_before_parents(self):
        ct = compile_binary_tree(_binary(12))
        assert ct.root_pos == ct.size - 1
        for pos in range(ct.size):
            for child in (ct.left[pos], ct.right[pos]):
                if child >= 0:
                    assert child < pos
                    assert ct.parent[child] == pos
                    assert ct.depth[child] == ct.depth[pos] + 1

    def test_structure_mirrors_binary_tree(self):
        binary = _binary(10, seed=3)
        ct = compile_binary_tree(binary)
        assert ct.size == binary.size()
        assert ct.num_real == binary.num_real
        assert sum(ct.is_dummy) == binary.size() - binary.num_real
        for pos, uid in enumerate(ct.uids):
            node = binary.node(uid)
            assert ct.g_in[pos] == node.g_in
            assert ct.originals[pos] == node.original
            assert bool(ct.is_dummy[pos]) == node.is_dummy

    def test_real_size_counts_non_dummies(self):
        ct = compile_binary_tree(_binary(11, seed=5, max_children=5))
        assert ct.real_size[ct.root_pos] == ct.num_real
        for pos in range(ct.size):
            expected = 0 if ct.is_dummy[pos] else 1
            for child in (ct.left[pos], ct.right[pos]):
                if child >= 0:
                    expected += ct.real_size[child]
            assert ct.real_size[pos] == expected

    def test_class_products_match_reference_path_product(self):
        # weight 1.0 saturates every consistent positive link at alpha=3
        # (long classes); 0.2 saturates none (one class per ancestor).
        for weight in (0.2, 0.5, 1.0):
            tree = _stated_tree(14, seed=7, max_children=4)
            for u, v, _ in list(tree.iter_edges()):
                tree.add_edge(u, v, 1, weight)
            binary = binarize_cascade_tree(tree, alpha=3.0)
            ct = compile_binary_tree(binary)
            solver = RecursiveTreeDP(binary)
            for pos, uid in enumerate(ct.uids):
                row = ct.cprod[pos]
                assert len(row) == ct.ncls[pos]
                assert row[0] == 0.0  # no initiator ancestor
                # Every strict ancestor q sits in class cinit[q] as seen
                # from below; that class's product is q's path product.
                anc = ct.parent[pos]
                while anc >= 0:
                    expected = solver.path_product(ct.uids[anc], uid)
                    assert row[ct.cinit[anc]].hex() == expected.hex()
                    anc = ct.parent[anc]

    def test_classes_are_prefix_consistent(self):
        ct = compile_binary_tree(_binary(15, seed=4, max_children=3))
        for pos in range(ct.size):
            par = ct.parent[pos]
            if par < 0:
                assert (ct.ncls[pos], ct.cinit[pos]) == (1, 1)
                continue
            opened = ct.cinit[par] == ct.ncls[par]
            assert ct.ncls[pos] == ct.ncls[par] + opened
            assert ct.cinit[par] < ct.ncls[pos]
            assert list(ct.cprod[pos]) == [0.0] + [
                x * ct.g_in[pos] for x in ct.cprod[par][1:]
            ] + ([ct.g_in[pos]] if opened else [])

    def test_saturated_chain_collapses_classes(self):
        # A path whose links all saturate (alpha * w >= 1) has one class
        # for its whole ancestor chain, however deep the node sits.
        tree = SignedDiGraph()
        for node in range(30):
            tree.add_node(node, NodeState.POSITIVE)
        for node in range(29):
            tree.add_edge(node, node + 1, 1, 0.5)
        ct = compile_binary_tree(binarize_cascade_tree(tree, alpha=3.0))
        deepest = max(range(ct.size), key=lambda pos: ct.depth[pos])
        assert ct.depth[deepest] == 29
        assert ct.ncls[deepest] == 2 < ct.depth[deepest] + 1
        assert all(ct.cinit[pos] == 1 for pos in range(ct.size))


class TestTreeDPKernel:
    def test_accepts_binary_or_precompiled(self):
        binary = _binary(8)
        compiled = compile_binary_tree(binary)
        a = TreeDPKernel(binary).solve(2)
        b = TreeDPKernel(compiled).solve(2)
        assert (a.score, a.initiators) == (b.score, b.initiators)

    def test_k_out_of_range(self):
        kernel = TreeDPKernel(_binary(5))
        with pytest.raises(DynamicProgramError, match=r"k must be in \[0, 5\]"):
            kernel.solve(-1)
        with pytest.raises(DynamicProgramError, match=r"k must be in \[0, 5\]"):
            kernel.solve(6)
        with pytest.raises(DynamicProgramError, match=r"k must be in \[0, 5\]"):
            kernel.solve_curve(6)

    def test_k_zero_is_empty(self):
        result = TreeDPKernel(_binary(6)).solve(0)
        assert result.k == 0
        assert result.score == 0.0
        assert result.initiators == {}

    def test_cap_growth_resweep_is_identical(self):
        binary = _binary(12, seed=11)
        incremental = TreeDPKernel(binary)
        fresh = TreeDPKernel(binary)
        fresh._ensure(binary.num_real)
        # Incremental solves trigger geometric cap growth; each re-sweep
        # must reproduce the lower budgets bit-for-bit.
        for k in range(0, binary.num_real + 1):
            a = incremental.solve(k)
            b = fresh.solve(k)
            assert a.score == b.score
            assert a.initiators == b.initiators

    def test_memo_states_gauge(self):
        kernel = TreeDPKernel(_binary(9))
        assert kernel.memo_states == 0
        kernel.solve(1)
        after_one = kernel.memo_states
        assert after_one > 0
        kernel.solve(kernel.tree.num_real)
        assert kernel.memo_states > after_one

    def test_fresh_kernel_matches_oracle(self):
        binary = _binary(7, seed=2)
        ref = RecursiveTreeDP(binary)
        one = TreeDPKernel(binary).solve(2)
        assert one.score == ref.solve(2).score
        curve = TreeDPKernel(binary).solve_curve(3)
        assert [r.k for r in curve] == [1, 2, 3]
        assert all(r.score == ref.solve(r.k).score for r in curve)


class TestSolverKernelWiring:
    """The RID seam builds the kernel; the recursive oracle stays consistent."""

    def test_kernel_is_default(self):
        import repro.core.rid as rid_module

        # The pipeline stages build every per-tree DP through this seam.
        assert rid_module.TreeDPKernel is TreeDPKernel

    def test_oracle_uses_recursive_memo(self):
        oracle = RecursiveTreeDP(_binary(6))
        oracle.solve(1)
        assert len(oracle._memo) > 0
        assert oracle.memo_size() == len(oracle._memo)

    def test_memo_size_lazy_kernel(self):
        kernel = TreeDPKernel(_binary(6))
        assert kernel.memo_states == 0  # compiled, nothing swept yet
        kernel.solve(2)
        assert kernel.memo_states > 0

    def test_solver_curve_matches_kernel_curve(self):
        binary = _binary(9, seed=4)
        via_oracle = RecursiveTreeDP(binary).solve_curve(4)
        via_kernel = TreeDPKernel(binary).solve_curve(4)
        assert [(r.k, r.score.hex(), r.initiators) for r in via_oracle] == [
            (r.k, r.score.hex(), r.initiators) for r in via_kernel
        ]

    def test_recursive_curve_fallback(self):
        binary = _binary(7, seed=9)
        curve = RecursiveTreeDP(binary).solve_curve(3)
        reference = RecursiveTreeDP(binary)
        assert [(r.k, r.score) for r in curve] == [
            (k, reference.solve(k).score) for k in (1, 2, 3)
        ]

    def test_path_product_iterative_matches_and_caches(self):
        binary = _binary(10, seed=6)
        solver = RecursiveTreeDP(binary)
        # Deepest slot: exercise a multi-hop upward walk.
        deepest = max(
            range(binary.size()),
            key=lambda uid: len(_chain(binary, uid)),
        )
        chain = _chain(binary, deepest)
        if chain:
            top = chain[-1]
            value = solver.path_product(top, deepest)
            assert (top, deepest) in solver._gprod
            # Cached prefix reuse must return the same value.
            assert solver.path_product(top, deepest) == value

    def test_path_product_rejects_non_ancestor(self):
        tree = SignedDiGraph()
        tree.add_node(0, NodeState.POSITIVE)
        tree.add_node(1, NodeState.POSITIVE)
        tree.add_node(2, NodeState.POSITIVE)
        tree.add_edge(0, 1, 1, 0.5)
        tree.add_edge(0, 2, 1, 0.5)
        binary = binarize_cascade_tree(tree, alpha=3.0)
        solver = RecursiveTreeDP(binary)
        leaves = [n.uid for n in binary.nodes if n.left is None and n.right is None]
        with pytest.raises(DynamicProgramError, match="is not an ancestor"):
            solver.path_product(leaves[0], leaves[1])


def _chain(binary, uid):
    out = []
    node = binary.node(uid)
    while node.parent is not None:
        out.append(node.parent)
        node = binary.node(node.parent)
    return out
