"""Reference solvers for the k-ISOMIT-BT dynamic program (Sec. III-D).

:class:`RecursiveTreeDP` is the original recursive, dict-memoised
program: one ``(uid, k, anc)`` memo entry per subproblem and one cached
``g``-path product per ``(anc, uid)`` pair. The production
:class:`~repro.kernel.tree_dp.TreeDPKernel` must match it bit for bit
(score *and* initiators) on every feasible budget. The recursion needs
CPython stack frames proportional to tree depth and runs within the
default recursion limit, so it only suits the shallow trees the identity
tests draw.

:func:`brute_force_k_isomit` searches every initiator subset, with both
the nearest-ancestor scoring (must match the DP's optimum) and the full
noisy-or scoring (for measuring the collapse's approximation error).

:func:`greedy_stop` is the paper's β selection (Sec. III-E3): grow k
from 1 and stop at the first k whose penalised objective does not
improve. :func:`best_over_k` scans every k instead. Both read ``OPT(k)``
off the production kernel's budget curve; production answers β mode
with :meth:`~repro.kernel.tree_dp.TreeDPKernel.solve_penalized`, which
must match :func:`best_over_k`'s objective and, wherever the curve is
concave and free of ties, :func:`greedy_stop`'s placement.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

from repro.core.binarize import BinaryCascadeTree
from repro.errors import DynamicProgramError
from repro.kernel.tree_dp import TreeDPKernel, TreeDPResult
from repro.types import Node, NodeState

_NEG_INF = float("-inf")


class RecursiveTreeDP:
    """Memoised recursive solver over one :class:`BinaryCascadeTree`.

    The memo is shared across calls with different ``k``, so an
    incremental k-search pays each subproblem once.
    """

    def __init__(self, tree: BinaryCascadeTree) -> None:
        self.tree = tree
        # Number of real (initiator-eligible) nodes in each slot's subtree,
        # used to clamp budget splits: a subtree of real size s can never
        # absorb more than s initiators.
        self._real_size: Dict[int, int] = {}
        self._compute_real_sizes()
        # memo[(uid, k, anc)] = (score, is_initiator, left_budget)
        self._memo: Dict[Tuple[Optional[int], int, Optional[int]], Tuple[float, bool, int]] = {}
        # _gprod[(anc, uid)] = g-product along the path (anc, uid]
        self._gprod: Dict[Tuple[int, int], float] = {}

    def _compute_real_sizes(self) -> None:
        """Post-order pass filling :attr:`_real_size`."""
        order: List[int] = []
        stack = [self.tree.root] if self.tree.nodes else []
        while stack:
            uid = stack.pop()
            order.append(uid)
            for child in self.tree.children(uid):
                if child is not None:
                    stack.append(child)
        for uid in reversed(order):
            node = self.tree.node(uid)
            size = 0 if node.is_dummy else 1
            for child in self.tree.children(uid):
                if child is not None:
                    size += self._real_size[child]
            self._real_size[uid] = size

    def _capacity(self, uid: Optional[int]) -> int:
        """Max initiators the subtree rooted at ``uid`` can hold."""
        return 0 if uid is None else self._real_size[uid]

    # ------------------------------------------------------------------
    # Path products
    # ------------------------------------------------------------------

    def path_product(self, anc: int, uid: int) -> float:
        """``Π g`` along the tree path from ``anc`` (exclusive) to ``uid``.

        Iterative: walks the parent chain up to ``anc`` (or the first
        cached prefix), then multiplies back down top-to-bottom, filling
        the cache for every slot on the way.
        """
        if anc == uid:
            return 1.0
        cached = self._gprod.get((anc, uid))
        if cached is not None:
            return cached
        chain: List[int] = []  # uids whose products are still unknown, bottom-up
        cur = uid
        while True:
            parent = self.tree.node(cur).parent
            if parent is None:
                raise DynamicProgramError(
                    f"{anc} is not an ancestor of {uid} in the binarised tree"
                )
            chain.append(cur)
            if parent == anc:
                value = 1.0
                break
            cached = self._gprod.get((anc, parent))
            if cached is not None:
                value = cached
                break
            cur = parent
        for cuid in reversed(chain):
            value = value * self.tree.node(cuid).g_in
            self._gprod[(anc, cuid)] = value
        return value

    def node_probability(self, uid: int, anc: Optional[int]) -> float:
        """``P(u, s(u) | I, S)`` under the nearest-ancestor collapse."""
        if self.tree.node(uid).is_dummy:
            return 0.0
        if anc is None:
            return 0.0
        return self.path_product(anc, uid)

    # ------------------------------------------------------------------
    # Dynamic program
    # ------------------------------------------------------------------

    def _solve(self, uid: Optional[int], k: int, anc: Optional[int]) -> float:
        """Best achievable subtree score with exactly ``k`` initiators."""
        if uid is None:
            return 0.0 if k == 0 else _NEG_INF
        key = (uid, k, anc)
        cached = self._memo.get(key)
        if cached is not None:
            return cached[0]

        node = self.tree.node(uid)
        left, right = node.left, node.right
        left_cap, right_cap = self._capacity(left), self._capacity(right)

        best_score = _NEG_INF
        best_is_initiator = False
        best_left_budget = 0

        # Case 1: u is not an initiator; split k between the children.
        # The split range is clamped by each child's capacity — a subtree
        # with s real nodes cannot host more than s initiators.
        own = self.node_probability(uid, anc)
        for m in range(max(0, k - right_cap), min(k, left_cap) + 1):
            left_score = self._solve(left, m, anc)
            if left_score == _NEG_INF:
                continue
            right_score = self._solve(right, k - m, anc)
            if right_score == _NEG_INF:
                continue
            score = own + left_score + right_score
            if score > best_score:
                best_score, best_is_initiator, best_left_budget = score, False, m

        # Cases 2-3: u is an initiator (real nodes only). Hypothesising the
        # observed state scores 1 and dominates the mismatched hypothesis
        # (score 0, identical subtrees), so only the dominant branch is
        # explored; the inferred state is the observed one.
        if k >= 1 and not node.is_dummy:
            remaining = k - 1
            for m in range(max(0, remaining - right_cap), min(remaining, left_cap) + 1):
                left_score = self._solve(left, m, uid)
                if left_score == _NEG_INF:
                    continue
                right_score = self._solve(right, remaining - m, uid)
                if right_score == _NEG_INF:
                    continue
                score = 1.0 + left_score + right_score
                if score > best_score:
                    best_score, best_is_initiator, best_left_budget = score, True, m

        self._memo[key] = (best_score, best_is_initiator, best_left_budget)
        return best_score

    def solve(self, k: int) -> TreeDPResult:
        """Optimal placement of exactly ``k`` initiators in the tree.

        Raises:
            DynamicProgramError: when ``k`` is out of ``[0, num_real]``.
        """
        score = self.solve_score(k)
        return TreeDPResult(k=k, score=score, initiators=self._reconstruct(k))

    def solve_score(self, k: int) -> float:
        """``OPT`` for exactly ``k`` initiators: ``solve(k).score`` without
        reconstructing the placement.

        Raises:
            DynamicProgramError: when ``k`` is out of ``[0, num_real]``.
        """
        if k < 0 or k > self.tree.num_real:
            raise DynamicProgramError(
                f"k must be in [0, {self.tree.num_real}], got {k}"
            )
        score = self._solve(self.tree.root, k, None)
        if score == _NEG_INF:
            raise DynamicProgramError(f"no feasible placement of {k} initiators")
        return score

    def solve_curve(self, k_max: int) -> List[TreeDPResult]:
        """The incremental curve ``[solve(1), …, solve(k_max)]`` (one memo).

        Raises:
            DynamicProgramError: when ``k_max`` is out of ``[0, num_real]``.
        """
        if k_max < 0 or k_max > self.tree.num_real:
            raise DynamicProgramError(
                f"k must be in [0, {self.tree.num_real}], got {k_max}"
            )
        return [self.solve(k) for k in range(1, k_max + 1)]

    def memo_size(self) -> int:
        """Solved DP states so far (memo entries)."""
        return len(self._memo)

    def _reconstruct(self, k: int) -> Dict[Node, NodeState]:
        """Walk the memoised decisions to recover the chosen initiators."""
        chosen: Dict[Node, NodeState] = {}
        stack: List[Tuple[Optional[int], int, Optional[int]]] = [
            (self.tree.root, k, None)
        ]
        while stack:
            uid, budget, anc = stack.pop()
            if uid is None:
                continue
            entry = self._memo.get((uid, budget, anc))
            if entry is None:  # pragma: no cover - solve() fills the memo
                raise DynamicProgramError("reconstruction reached an unsolved state")
            _, is_initiator, left_budget = entry
            node = self.tree.node(uid)
            if is_initiator:
                chosen[node.original] = node.state
                stack.append((node.left, left_budget, uid))
                stack.append((node.right, budget - 1 - left_budget, uid))
            else:
                stack.append((node.left, left_budget, anc))
                stack.append((node.right, budget - left_budget, anc))
        return chosen


# --------------------------------------------------------------------------
# Exhaustive reference solver
# --------------------------------------------------------------------------


def _ancestors_of(tree: BinaryCascadeTree, uid: int) -> List[int]:
    """Strict ancestors of a slot, nearest first."""
    out = []
    node = tree.node(uid)
    while node.parent is not None:
        out.append(node.parent)
        node = tree.node(node.parent)
    return out


def brute_force_k_isomit(
    tree: BinaryCascadeTree,
    k: int,
    scoring: str = "nearest",
) -> TreeDPResult:
    """Exhaustive search over all size-``k`` initiator subsets.

    Args:
        tree: the binarised cascade tree.
        k: exact number of initiators to place.
        scoring: ``'nearest'`` scores nodes by the nearest initiator
            ancestor's path product (the DP's objective — results must
            match the DP); ``'noisy_or'`` combines *all* initiator
            ancestors via the paper's noisy-or (the exact Sec. III-B
            probability on trees).

    Raises:
        DynamicProgramError: for out-of-range ``k`` or unknown scoring.
    """
    if scoring not in ("nearest", "noisy_or"):
        raise DynamicProgramError(f"unknown scoring {scoring!r}")
    real_uids = [n.uid for n in tree.nodes if not n.is_dummy]
    if k < 0 or k > len(real_uids):
        raise DynamicProgramError(f"k must be in [0, {len(real_uids)}], got {k}")
    # Only path_product is needed. Both helpers (`_ancestors_of`,
    # `path_product`) are iterative, so the brute force survives deep trees.
    helper = RecursiveTreeDP(tree)

    best_score = _NEG_INF
    best_set: Tuple[int, ...] = ()
    for subset in itertools.combinations(sorted(real_uids), k):
        chosen = set(subset)
        score = 0.0
        for uid in real_uids:
            if uid in chosen:
                score += 1.0
                continue
            ancestor_inits = [a for a in _ancestors_of(tree, uid) if a in chosen]
            if not ancestor_inits:
                continue
            if scoring == "nearest":
                score += helper.path_product(ancestor_inits[0], uid)
            else:
                failure = 1.0
                for anc in ancestor_inits:
                    failure *= 1.0 - helper.path_product(anc, uid)
                score += 1.0 - failure
        if score > best_score:
            best_score, best_set = score, subset

    initiators = {
        tree.node(uid).original: tree.node(uid).state for uid in best_set
    }
    return TreeDPResult(k=k, score=best_score, initiators=initiators)


# --------------------------------------------------------------------------
# β selection: the paper's greedy stop, and the scan over every k
# --------------------------------------------------------------------------


def _penalized_scan(binary, beta: float, stop: bool) -> TreeDPResult:
    """The best ``OPT(k) − (k − 1)·β`` over ``k = 1, 2, …``.

    ``OPT(k)`` comes from ``TreeDPKernel(binary).solve_score`` (looked up
    on this module, so tests can stub the curve). Only a strictly higher
    objective replaces the best so far. ``stop`` ends the scan at the
    first k that does not improve; otherwise every k is scanned. The
    winner is reconstructed once, by ``solve(k)``.
    """
    solver = TreeDPKernel(binary)
    best_k, best_objective = 0, _NEG_INF
    for k in range(1, binary.num_real + 1):
        objective = solver.solve_score(k) - (k - 1) * beta
        if objective > best_objective:
            best_k, best_objective = k, objective
        elif stop:
            break
    if best_k == 0:
        raise DynamicProgramError("a tree without real nodes has no initiator to place")
    return solver.solve(best_k)


def greedy_stop(binary, beta: float) -> TreeDPResult:
    """The paper's β selection on one binarised tree (Sec. III-E3).

    Grows k from 1 and stops at the first k whose penalised objective
    ``OPT(k) − (k − 1)·β`` fails to improve strictly (an equal objective
    stops the scan), and returns ``solve(k)`` for the last improving k.
    """
    return _penalized_scan(binary, beta, stop=True)


def best_over_k(binary, beta: float) -> TreeDPResult:
    """The exact β selection: the best ``OPT(k) − (k − 1)·β`` over every
    ``k >= 1``, the smallest such k on an exact tie."""
    return _penalized_scan(binary, beta, stop=False)


def paper_stop_is_exact(binary, beta: float) -> bool:
    """Whether :func:`greedy_stop` must pick the exact selection's k.

    True when ``OPT(k)`` is concave in k (no second difference above
    1e-9) and no other k comes within 1e-9 of the stop's penalised
    objective. Elsewhere the two may differ: on a non-concave curve the
    stop can miss a later optimum, and on a near-tie float rounding in
    either summation order can decide.
    """
    solver = TreeDPKernel(binary)
    opt = [solver.solve_score(k) for k in range(binary.num_real + 1)]
    if any(opt[k + 1] - 2.0 * opt[k] + opt[k - 1] > 1e-9 for k in range(1, binary.num_real)):
        return False
    chosen = greedy_stop(binary, beta)
    mine = chosen.score - (chosen.k - 1) * beta
    return all(
        opt[k] - (k - 1) * beta < mine - 1e-9
        for k in range(1, binary.num_real + 1)
        if k != chosen.k
    )
