"""Compiled TreeDP kernel ≡ recursive solver ≡ brute force.

The compiled flat-array kernel (:mod:`repro.kernel.tree_dp`) promises
**bit-identity** with the recursive dict-memo solver
(``tests/oracles/tree_dp.py``): same ``score`` floats, same
``initiators`` dicts, for every feasible budget. Brute force certifies
optimality too, but only approximately — its objective sums per-node
terms in a different order, so last-bit ULP differences are expected
there.

The kernel's anc axis indexes ancestor *classes* (ancestors joined by
links with ``g == 1.0`` exactly share a column), and growing the budget
cap resumes the tables instead of re-sweeping them. ``saturated_trees``
draws the saturated links and deep chains that exercise both.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.binarize import binarize_cascade_tree
from repro.graphs.generators.trees import random_general_tree, star_graph
from repro.graphs.signed_digraph import SignedDiGraph
from repro.kernel.tree_dp import TreeDPKernel
from repro.types import NodeState
from repro.utils.rng import spawn_rng
from tests.oracles.tree_dp import RecursiveTreeDP, brute_force_k_isomit
from tests.property.tree_strategies import saturated_trees


@st.composite
def stated_trees(draw):
    """Random general trees (fan-outs force dummies) with random states."""
    size = draw(st.integers(min_value=1, max_value=12))
    max_children = draw(st.integers(min_value=2, max_value=5))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    tree = random_general_tree(size, max_children=max_children, rng=seed)
    rng = spawn_rng(seed, "states")
    for node in tree.nodes():
        tree.set_state(
            node, NodeState.POSITIVE if rng.random() < 0.6 else NodeState.NEGATIVE
        )
    alpha = draw(st.floats(min_value=1.0, max_value=4.0, allow_nan=False))
    return tree, alpha


class TestKernelIdentity:
    @given(stated_trees())
    @settings(max_examples=80, deadline=None)
    def test_kernel_bit_identical_to_recursive_all_k(self, world):
        tree, alpha = world
        binary = binarize_cascade_tree(tree, alpha=alpha)
        reference = RecursiveTreeDP(binary)
        compiled = TreeDPKernel(binary)
        # Every feasible budget, including k=0 and k=num_real.
        for k in range(0, binary.num_real + 1):
            ref = reference.solve(k)
            ker = compiled.solve(k)
            assert ker.k == ref.k
            assert ker.score == ref.score  # bitwise, no tolerance
            assert ker.initiators == ref.initiators

    @given(stated_trees())
    @settings(max_examples=60, deadline=None)
    def test_curve_matches_per_k_solves(self, world):
        tree, alpha = world
        binary = binarize_cascade_tree(tree, alpha=alpha)
        reference = RecursiveTreeDP(binary)
        curve = TreeDPKernel(binary).solve_curve(binary.num_real)
        assert len(curve) == binary.num_real
        for k, result in enumerate(curve, start=1):
            ref = reference.solve(k)
            assert result.k == k
            assert result.score == ref.score
            assert result.initiators == ref.initiators

    @given(stated_trees(), st.integers(min_value=1, max_value=3))
    @settings(max_examples=50, deadline=None)
    def test_kernel_optimal_vs_brute_force(self, world, k):
        tree, alpha = world
        binary = binarize_cascade_tree(tree, alpha=alpha)
        budget = min(k, binary.num_real)
        dp = TreeDPKernel(binary).solve(budget)
        brute = brute_force_k_isomit(binary, budget, scoring="nearest")
        # Brute force sums in subset-enumeration order: approx only.
        assert abs(dp.score - brute.score) < 1e-9


class TestSaturatedClassLayout:
    @given(world=saturated_trees())
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_to_recursive_across_cap_growth(self, world):
        tree, alpha = world
        binary = binarize_cascade_tree(tree, alpha=alpha)
        reference = RecursiveTreeDP(binary)
        # One solver for every k: solve(1), solve(2), ... grow the cap
        # geometrically, so every growth step is a resumed sweep.
        compiled = TreeDPKernel(binary)
        for k in range(0, binary.num_real + 1):
            ref = reference.solve(k)
            assert compiled.solve_score(k).hex() == ref.score.hex()
            ker = compiled.solve(k)
            assert ker.score.hex() == ref.score.hex()
            assert ker.initiators == ref.initiators

    @given(world=saturated_trees())
    @settings(max_examples=30, deadline=None)
    def test_resumed_curve_equals_one_sweep(self, world):
        tree, alpha = world
        binary = binarize_cascade_tree(tree, alpha=alpha)
        resumed = TreeDPKernel(binary)
        for k in range(1, binary.num_real + 1):
            resumed.solve_score(k)
        fresh = TreeDPKernel(binary)
        one_sweep = fresh.solve_curve(binary.num_real)
        assert [
            (r.score.hex(), r.initiators)
            for r in resumed.solve_curve(binary.num_real)
        ] == [(r.score.hex(), r.initiators) for r in one_sweep]
        # Resuming fills each table entry exactly once.
        assert resumed.memo_states == fresh.memo_states


class TestKernelEdgeCases:
    def _identical(self, binary, k):
        ref = RecursiveTreeDP(binary).solve(k)
        ker = TreeDPKernel(binary).solve(k)
        assert ker.score == ref.score
        assert ker.initiators == ref.initiators
        return ker

    def test_lone_root(self):
        tree = SignedDiGraph()
        tree.add_node(0, NodeState.POSITIVE)
        binary = binarize_cascade_tree(tree, alpha=3.0)
        assert self._identical(binary, 0).initiators == {}
        assert self._identical(binary, 1).initiators == {0: NodeState.POSITIVE}

    def test_all_dummy_children_star(self):
        # A 6-leaf star forces a full dummy fan-out layer under the hub.
        tree = star_graph(7, sign=1, weight=0.5)
        for node in tree.nodes():
            tree.set_state(node, NodeState.POSITIVE)
        binary = binarize_cascade_tree(tree, alpha=3.0)
        assert binary.size() > binary.num_real  # dummies present
        for k in range(0, binary.num_real + 1):
            self._identical(binary, k)
