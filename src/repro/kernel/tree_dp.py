"""The ``OPT(u, I, S, k)`` dynamic program for k-ISOMIT-BT (Sec. III-D).

Given a binarised cascade tree and a budget of ``k`` initiators, find the
placement (identities + initial states) maximising the paper's additive
objective — the sum over tree nodes of ``P(u, s(u) | I, S)``:

* a node chosen as initiator whose hypothesised state matches its
  observed snapshot state contributes 1 (the paper's single-node special
  case); a mismatched hypothesis contributes 0 and is never optimal, so
  the inferred initial state of a selected initiator is its observed
  state;
* any other node contributes the ``g``-product along the path from its
  nearest initiator ancestor (0 when it has none) — on a directed tree
  only ancestors can reach a node, and the nearest ancestor's path
  product dominates the noisy-or combination, so the DP collapses the
  paper's ``(I, S)`` argument to *nearest initiator ancestor*, which is
  what keeps the program polynomial (the paper asserts polynomiality but
  omits the construction "due to the limited space"; this collapse is
  the standard one, cf. Lappas et al.'s effectors DP).

Reproduction note: the paper's recursion takes ``min`` over the child
budget split ``m`` inside an outer ``max``; since ``OPT`` is maximised by
the final objective ``argmin −OPT + (k−1)β``, the inner ``min`` is read
as a typo for ``max`` (a genuine min over splits would just pick the
worst split of an otherwise maximised quantity).

Dummy nodes from the binarisation are transparent: they contribute
nothing to the objective, cannot be initiators, and their incoming edge
has ``g = 1``.

Execution: the tree is compiled once into flat post-order arrays
(:func:`compile_binary_tree` → :class:`CompiledBinaryTree`) and the DP
runs as an explicit post-order sweep (:class:`TreeDPKernel`) — no
recursion, no dict memo, no per-lookup tuple hashing:

* **memo → list indexing over ancestor classes.** Per node ``u`` the
  kernel fills one table indexed ``[ancestor-class][budget]``. The
  nearest-initiator-ancestor argument of ``OPT(u, I, S, k)`` only
  enters the objective through the path product ``Π g`` from that
  ancestor down to each descendant. The MFC factor ``g = min(1, α·w)``
  saturates to exactly ``1.0`` on most links (dummies carry ``1.0`` by
  construction), and ``x * 1.0 == x`` in IEEE arithmetic, so ancestors
  separated only by saturated links give every descendant bit-for-bit
  the same products — the same DP column. A class groups such
  ancestors: a strict ancestor opens a new class when it is the root or
  its own ``g_in != 1.0``, and joins its parent's class otherwise.
  Lookups are list indexing; no tuples, no hashing, no recursion, and
  on the paper workloads 14x (scale 0.02) to 42x (scale 0.01) fewer
  columns than one per ancestor depth. The collapse is exact, not an
  approximation.
* **class products in one pass.** ``cprod[u][c]`` — the ``Π g`` from
  any ancestor in class ``c`` (exclusive) down to ``u`` — is computed in
  one root-to-leaf pass (``cprod[u] = cprod[parent] * g_in(u)``, plus
  ``g_in(u)`` when the parent opens a class), in exactly the reference
  ``path_product`` multiplication order, so every float is
  bit-identical.
* **resumed sweeps, every budget.** One sweep fills all budgets up to a
  cap, so :meth:`TreeDPKernel.solve_curve` returns the whole
  incremental k-search curve (what ``detect_with_budget`` needs per
  tree) for the cost of one traversal. :meth:`TreeDPKernel.solve` grows
  the cap geometrically, and growing it resumes the tables — entries at or
  below the old cap never change, so only the new budgets are filled.
* **score-only reads.** :meth:`TreeDPKernel.solve_score` reads
  ``OPT(k)`` off the root table without reconstructing the placement.
* **β mode without a budget axis.** RID's per-tree model selection
  maximises ``OPT(k) − (k − 1)·β`` over k, the Lagrangian form of the
  budget constraint. :meth:`TreeDPKernel.solve_penalized` charges β to
  each initiator inside the recurrence instead, so one post-order pass
  over the class columns, one value per ``(slot, class)``, returns the
  exact optimum over every k ≥ 1. The chosen placement is then
  rescored in the budgeted sweep's summation order, so its ``score``
  is bit-equal to ``OPT(k)`` whenever the budgeted sweep reconstructs
  the same placement. :meth:`TreeDPKernel.beta_interval` finds the β
  interval on which that placement stays optimal, by Newton steps of
  the same pass.

Bit-identity contract: the kernel's :class:`TreeDPResult` equals the
recursive dict-memo program's (``tests/oracles/tree_dp.py``; score *and*
initiators) bit for bit — same float expressions in the same order, same
strict-improvement tie-breaking (not-an-initiator splits scanned in
ascending ``m`` first, then initiator splits), same reconstruction
traversal. ``tests/property/test_tree_dp_kernel_identity.py`` and the
``bench_tree_dp.py --tiny`` CI gate pin this.

One deliberate asymmetry: the initiator case of the recurrence does not
depend on the ancestor argument (the children's nearest initiator is
``u`` itself), so the kernel evaluates it once per ``(u, k)`` and
broadcasts, where the recursive oracle recomputes the identical floats
per memo entry. Values and decisions are unchanged; work is not.
``rid.tree_dp.memo_states`` counts class columns accordingly.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import DynamicProgramError
from repro.types import Node, NodeState

_NEG_INF = float("-inf")
#: A Newton step of :meth:`TreeDPKernel.beta_interval` stops when no
#: placement beats the chosen one by more than this, relative.
_NEWTON_RTOL = 1e-9


@dataclass
class TreeDPResult:
    """Outcome of one k-ISOMIT-BT solve.

    Attributes:
        k: the initiator budget that was solved for.
        score: optimal objective value ``OPT`` (sum of per-node
            explanation probabilities).
        initiators: inferred initiator identities mapped to their
            inferred initial states (observed snapshot states).
    """

    k: int
    score: float
    initiators: Dict[Node, NodeState]


def _decision_typecode(cap: int) -> str:
    """Smallest signed ``array`` typecode holding every packed decision.

    A decision packs a split ``m <= cap`` as ``(m << 1) | initiator``,
    so the peak stored value is ``2 * cap + 1``. Typecode widths are
    platform-defined (``'l'`` is 4 bytes on some ABIs), so the guard
    asks each candidate for its actual ``itemsize`` instead of assuming
    — silent C-level wraparound here would corrupt reconstruction, not
    raise.

    Raises:
        DynamicProgramError: when no stdlib typecode can hold the peak
            (budgets beyond ``2**62`` — unreachable in practice, but
            loud beats wrong).
    """
    peak = 2 * cap + 1
    for code in ("h", "l", "q"):
        if peak < 1 << (8 * array(code).itemsize - 1):
            return code
    raise DynamicProgramError(
        f"budget cap {cap} overflows every supported decision typecode"
    )


class CompiledBinaryTree:
    """Flat post-order snapshot of a binarised cascade tree.

    Positions ``0..size-1`` enumerate slots in post-order (every child
    position precedes its parent; the root is last), so the DP sweep is
    a plain ``for`` loop. Build via :func:`compile_binary_tree`.

    Attributes:
        size: total slot count (including dummies).
        num_real: non-dummy slot count (the original tree's node count).
        root_pos: position of the root (always ``size - 1``).
        uids: original :class:`BinaryCascadeTree` uid per position.
        left / right / parent: child/parent positions (``-1`` for none).
        is_dummy: 1 for transform-inserted fan-out slots.
        g_in: per-slot incoming ``g`` factor (1.0 for root and dummies).
        real_size: non-dummy slots in each position's subtree (budget
            capacity clamps).
        depth: root depth 0; ``depth[p] = depth[parent[p]] + 1``.
        ncls: ancestor classes seen from ``p`` — 1 (class 0, "no
            initiator ancestor") plus the strict ancestors that are the
            root or have ``g_in != 1.0``. Ancestors joined by saturated
            links share a class; a child's classes are its parent's plus
            at most one.
        cinit: the class ``p``'s children read for "``p`` is the
            initiator": ``ncls[p]`` when ``p`` is the root or has
            ``g_in != 1.0`` (``p`` opens a class), else ``ncls[p] - 1``
            (``p`` joins its parent's class).
        cprod: per-position class product row of length ``ncls[p]``:
            ``cprod[p][c] = Π g`` along ``(q, p]`` for every ancestor
            ``q`` in class ``c >= 1`` (bitwise equal across the class),
            and ``cprod[p][0] = 0.0``.
        originals / states: reconstruction payload per position (the
            original cascade-tree node and its observed state).
    """

    __slots__ = (
        "size",
        "num_real",
        "root_pos",
        "uids",
        "left",
        "right",
        "parent",
        "is_dummy",
        "g_in",
        "real_size",
        "depth",
        "ncls",
        "cinit",
        "cprod",
        "originals",
        "states",
    )

    def __init__(self, tree) -> None:
        nodes = tree.nodes
        n = len(nodes)
        self.size = n
        self.num_real = tree.num_real
        if n == 0:
            self.root_pos = -1
            self.uids = []
            self.left = self.right = self.parent = []
            self.is_dummy = bytearray()
            self.g_in = []
            self.real_size = []
            self.depth = []
            self.ncls = []
            self.cinit = []
            self.cprod = []
            self.originals = []
            self.states = []
            return

        # Post-order positions: push-order DFS emits parents before
        # children; reversing yields children-before-parent.
        order: List[int] = []
        stack = [tree.root]
        while stack:
            uid = stack.pop()
            order.append(uid)
            node = nodes[uid]
            if node.left is not None:
                stack.append(node.left)
            if node.right is not None:
                stack.append(node.right)
        order.reverse()
        pos_of = {uid: pos for pos, uid in enumerate(order)}

        self.root_pos = n - 1
        self.uids = order
        left = [-1] * n
        right = [-1] * n
        parent = [-1] * n
        is_dummy = bytearray(n)
        g_in = [1.0] * n
        originals: List[Optional[Node]] = [None] * n
        states: List[NodeState] = [None] * n  # type: ignore[list-item]
        for pos, uid in enumerate(order):
            node = nodes[uid]
            if node.left is not None:
                left[pos] = pos_of[node.left]
            if node.right is not None:
                right[pos] = pos_of[node.right]
            if node.parent is not None:
                parent[pos] = pos_of[node.parent]
            if node.is_dummy:
                is_dummy[pos] = 1
            g_in[pos] = node.g_in
            originals[pos] = node.original
            states[pos] = node.state
        self.left, self.right, self.parent = left, right, parent
        self.is_dummy, self.g_in = is_dummy, g_in
        self.originals, self.states = originals, states

        # Subtree capacities (post-order: children first).
        real_size = [0] * n
        for pos in range(n):
            s = 0 if is_dummy[pos] else 1
            if left[pos] >= 0:
                s += real_size[left[pos]]
            if right[pos] >= 0:
                s += real_size[right[pos]]
            real_size[pos] = s
        self.real_size = real_size

        # Depths and ancestor classes, one root-to-leaf pass (reversed
        # post-order visits every parent before its children). A strict
        # ancestor starts a new class when it is the root or its own
        # g_in != 1.0; otherwise it joins its parent's class, because the
        # saturated link multiplies every path product through it by 1.0,
        # which is exact. Rows grow as cprod[p] = [0.0] + [x * g for x in
        # cprod[parent][1:]] (+ [1.0 * g] when the parent opens a class) —
        # the top-down multiplication order of the reference
        # path_product, so every class product is bit-identical to the
        # path product of each ancestor in the class.
        depth = [0] * n
        ncls = [1] * n
        cinit = [1] * n
        cprod: List[array] = [None] * n  # type: ignore[list-item]
        for pos in range(n - 1, -1, -1):
            par = parent[pos]
            if par < 0:
                cprod[pos] = array("d", (0.0,))  # the root opens class 1
                continue
            depth[pos] = depth[par] + 1
            g = g_in[pos]
            row = cprod[par]
            prod = [0.0]
            prod.extend([x * g for x in row[1:]])
            if cinit[par] == ncls[par]:  # the parent opened a class
                prod.append(g)  # 1.0 * g, exactly
            w = len(prod)
            ncls[pos] = w
            cinit[pos] = w if g != 1.0 else w - 1
            cprod[pos] = array("d", prod)
        self.depth = depth
        self.ncls = ncls
        self.cinit = cinit
        self.cprod = cprod


def compile_binary_tree(tree) -> CompiledBinaryTree:
    """Compile a :class:`BinaryCascadeTree` into flat post-order arrays."""
    return CompiledBinaryTree(tree)


class TreeDPKernel:
    """Iterative k-ISOMIT-BT solver over a :class:`CompiledBinaryTree`.

    A sweep fills, for every position, a score/decision table indexed
    ``[ancestor-class][budget]`` in one post-order loop. Tables are
    shared across budgets: ``solve(k)`` for any ``k`` at or below the
    swept cap is a table read plus reconstruction. The cap grows
    geometrically on demand, and growing it *resumes* the tables —
    entries for budgets at or below the old cap never change, so a sweep
    to a new cap fills only the budgets above the old one. Incremental k
    searches (``solve(1)``, ``solve(2)``, …) therefore cost one sweep at
    the final cap.

    Score columns (``array('d')``) are kept until no later resume can
    read them: a node's columns die once its parent's table is complete
    (every budget its subtree can hold). Decision columns are kept
    compactly (``array('h')``/``array('l')``) for reconstruction.

    :meth:`solve_penalized` answers β mode without any budget table: one
    pass, one value per ``(slot, class)``.

    Attributes:
        memo_states: table entries filled so far (budget rows × ancestor
            classes for sweeps, class columns for penalised passes),
            exported as the ``rid.tree_dp.memo_states`` gauge.
    """

    def __init__(self, tree) -> None:
        if isinstance(tree, CompiledBinaryTree):
            self.tree = tree
        else:
            self.tree = compile_binary_tree(tree)
        self._cap = -1
        #: decision code width, sized for the largest possible cap.
        self._typecode = _decision_typecode(self.tree.num_real)
        self._dec: List[object] = [[] for _ in range(self.tree.size)]
        self._root_scores: List[float] = []
        #: per-node score columns a resumed sweep still reads.
        self._sweep_state: Optional[List[Optional[List[array]]]] = None
        self.memo_states = 0

    # ------------------------------------------------------------------

    def _ensure(self, k: int) -> None:
        """Extend the tables to budget ``k`` (geometric cap growth)."""
        if k <= self._cap:
            return
        target = self._cap * 2
        if target < k:
            target = k
        if target > self.tree.num_real:
            target = self.tree.num_real
        self._sweep(target)

    def _sweep(self, cap: int) -> None:
        """Extend every per-node ``[ancestor-class][budget]`` table to ``cap``.

        Tables are column-major: ``scores[u][c][k]`` and
        ``dec[u][c][k - 1]``. The anc axis maps slot 0 to "no initiator
        ancestor" and slot ``c >= 1`` to ancestor class ``c``; a node
        owns ``ncls[u]`` columns, and its children read column
        ``cinit[u]`` ("nearest initiator is this node"). Budgets at or
        below the previous cap are already filled and are skipped.

        Column-major tables let each column's split scan run over plain
        scalars, and let a one-child node fill a whole column in one
        comprehension over the budgets (its split is forced). Every sum
        keeps the reference order ``(own + left) + right``, and every
        scan the ascending-``m`` strict-improvement tie-breaking.
        """
        ct = self.tree
        n = ct.size
        left, right, ncls, cinit = ct.left, ct.right, ct.ncls, ct.cinit
        real_size, is_dummy, cprod = ct.real_size, ct.is_dummy, ct.cprod
        typecode = self._typecode
        neg_inf = _NEG_INF
        old = self._cap
        scores = self._sweep_state
        if scores is None:
            scores = [[] for _ in range(n)]
        dec = self._dec
        states = self.memo_states

        for u in range(n):
            size = real_size[u]
            kcap = cap if cap < size else size
            k0 = (old if old < size else size) + 1
            if k0 > kcap:
                continue  # table already complete
            l, r = left[u], right[u]
            w = ncls[u]
            lcap = real_size[l] if l >= 0 else 0
            rcap = real_size[r] if r >= 0 else 0
            Sl = scores[l] if l >= 0 else None
            Sr = scores[r] if r >= 0 else None
            S_u = scores[u]
            D_u = dec[u]
            if not S_u:
                S_u.extend(array("d") for _ in range(w))
                D_u.extend(array(typecode) for _ in range(w))
            # Case 1 covers the budgets the children can absorb without u.
            khi = kcap if kcap < lcap + rcap else lcap + rcap

            # Cases 2-3: u is an initiator (real slots only). The
            # children's nearest initiator ancestor is u itself (column
            # cinit[u]), so the value does not depend on u's anc slot:
            # evaluate once per budget, merge into every column below
            # with the strict comparison. k = 0 has no initiator case
            # (-inf never wins).
            if not is_dummy[u]:
                own = cprod[u]
                ca = cinit[u]
                Lca = Sl[ca] if Sl is not None else None
                Rca = Sr[ca] if Sr is not None else None
                r0 = k0 - 1 if k0 else 0  # first rem = k - 1 to fill
                init_s = [neg_inf] if k0 == 0 else []
                init_d = [0] if k0 == 0 else []
                # k <= size = 1 + lcap + rcap keeps every range non-empty.
                if Lca is not None and Rca is not None:
                    for rem in range(r0, kcap):
                        lo = rem - rcap if rem > rcap else 0
                        hi = rem if rem < lcap else lcap
                        best = 1.0 + Lca[lo] + Rca[rem - lo]
                        mb = lo
                        for m in range(lo + 1, hi + 1):
                            sc = 1.0 + Lca[m] + Rca[rem - m]
                            if sc > best:
                                best = sc
                                mb = m
                        init_s.append(best)
                        init_d.append((mb + mb) | 1)
                elif Lca is not None:  # no right child: m = rem
                    init_s.extend([1.0 + x + 0.0 for x in Lca[r0:kcap]])
                    init_d.extend([(m + m) | 1 for m in range(r0, kcap)])
                elif Rca is not None:  # no left child: m = 0
                    init_s.extend([1.0 + 0.0 + y for y in Rca[r0:kcap]])
                    init_d.extend([1] * (kcap - r0))
                else:  # leaf
                    init_s.extend([1.0 + 0.0 + 0.0] * (kcap - r0))
                    init_d.extend([1] * (kcap - r0))
            else:
                own = [0.0] * w  # dummies never contribute
                init_s = None

            # Case 1: u is not an initiator; split k over the children,
            # per anc column. Only a two-child split has a range of m.
            first = 1 if k0 == 0 else 0  # no decision is stored for k = 0
            if Sl is not None and Sr is not None:
                spans = [
                    (k, k - rcap if k > rcap else 0, k if k < lcap else lcap)
                    for k in range(k0, khi + 1)
                ]
            for c in range(w):
                o = own[c]
                Lc = Sl[c] if Sl is not None else None
                Rc = Sr[c] if Sr is not None else None
                if Lc is not None and Rc is not None:
                    vals = []
                    decs = []
                    for k, lo, hi in spans:
                        v = o + Lc[lo] + Rc[k - lo]
                        mv = lo
                        for m in range(lo + 1, hi + 1):
                            sc = o + Lc[m] + Rc[k - m]
                            if sc > v:
                                v = sc
                                mv = m
                        vals.append(v)
                        decs.append(mv + mv)
                elif Lc is not None:  # no right child: m = k
                    vals = [o + x + 0.0 for x in Lc[k0 : khi + 1]]
                    decs = [k + k for k in range(k0, khi + 1)]
                elif Rc is not None:  # no left child: m = 0
                    vals = [o + 0.0 + y for y in Rc[k0 : khi + 1]]
                    decs = [0] * len(vals)
                else:  # leaf: only k = 0 splits
                    vals = [o + 0.0 + 0.0] if k0 == 0 else []
                    decs = [0] * len(vals)
                if init_s is not None:
                    # Budgets past khi exceed the children's capacity:
                    # only the initiator case fills them.
                    nv = len(vals)
                    decs = [
                        bd if b > v else d
                        for v, d, b, bd in zip(vals, decs, init_s, init_d)
                    ]
                    decs.extend(init_d[nv:])
                    vals = [b if b > v else v for v, b in zip(vals, init_s)]
                    vals.extend(init_s[nv:])
                S_u[c].extend(vals)
                D_u[c].extend(decs[first:])

            states += (kcap + 1 - k0) * w
            if kcap == size:
                # u's table is complete and each slot has exactly one
                # parent: no later resume reads the children's columns.
                if l >= 0:
                    scores[l] = None
                if r >= 0:
                    scores[r] = None

        root_col = scores[ct.root_pos][0]
        self._root_scores.extend(root_col[len(self._root_scores) :])
        self._sweep_state = None if cap >= ct.num_real else scores
        self._cap = cap
        self.memo_states = states

    # ------------------------------------------------------------------

    def solve(self, k: int) -> TreeDPResult:
        """Optimal placement of exactly ``k`` initiators (iterative).

        Raises:
            DynamicProgramError: when ``k`` is out of ``[0, num_real]``.
        """
        score = self.solve_score(k)
        return TreeDPResult(k=k, score=score, initiators=self._reconstruct(k))

    def solve_score(self, k: int) -> float:
        """``OPT`` for exactly ``k`` initiators, without reconstruction.

        Equals ``solve(k).score`` bit for bit, for callers that compare
        scores across budgets and reconstruct once.

        Raises:
            DynamicProgramError: when ``k`` is out of ``[0, num_real]``.
        """
        num_real = self.tree.num_real
        if k < 0 or k > num_real:
            raise DynamicProgramError(f"k must be in [0, {num_real}], got {k}")
        if self.tree.size == 0:
            return 0.0
        self._ensure(k)
        return self._root_scores[k]

    def solve_curve(self, k_max: int) -> List[TreeDPResult]:
        """The full incremental curve ``[solve(1), …, solve(k_max)]`` in one sweep."""
        num_real = self.tree.num_real
        if k_max < 0 or k_max > num_real:
            raise DynamicProgramError(f"k must be in [0, {num_real}], got {k_max}")
        if k_max >= 1:
            self._ensure(k_max)
        return [self.solve(k) for k in range(1, k_max + 1)]

    def solve_penalized(self, beta: float) -> TreeDPResult:
        """The placement maximising ``score − β·|I|``, at least one initiator.

        Equivalently the placement maximising the paper's
        ``OPT(k) − (k − 1)·β`` over every ``k >= 1``, from one post-order
        pass with no budget axis. Per slot ``u`` and class ``c`` the pass
        keeps one value, the best penalised score of ``u``'s subtree when
        its nearest initiator ancestor lies in class ``c``: ``u`` is an
        initiator (``1 − β`` plus its children at ``cinit[u]``, the same
        for every ``c``) or it is not (``cprod[u][c]`` plus its children
        at ``c``). On an exact float tie ``u`` stays out, the analogue of
        the paper's strict-improvement stop.

        The empty placement scores 0, so it wins when ``OPT(1) <= β``.
        A placement's score is at most the sum of its initiators'
        single-initiator scores, so ``OPT(k) <= k·OPT(1)``, and then
        ``k = 1`` is the best with at least one initiator: the pass
        returns ``solve(1)``, as a scan starting at ``k = 1`` does.

        The chosen placement is rescored bottom-up in the sweep's
        summation order, ``(own + left) + right``, so ``score`` equals
        ``solve(k).score`` bit for bit whenever the sweep reconstructs
        the same placement for ``k``.

        Raises:
            DynamicProgramError: for a non-finite ``beta`` or a tree
                without real nodes.
        """
        if not math.isfinite(beta):
            raise DynamicProgramError(f"beta must be finite, got {beta}")
        ct = self.tree
        if ct.num_real == 0:
            raise DynamicProgramError("a tree without real nodes has no initiator to place")
        n, root = ct.size, ct.root_pos
        left, right, ncls, cinit = ct.left, ct.right, ct.ncls, ct.cinit
        is_dummy, cprod = ct.is_dummy, ct.cprod
        gain = 1.0 - beta
        # Every value is >= 0 (staying out always is), so a dummy's
        # 0.0 + x is x, and a dummy's children own exactly its columns.
        vals: List[Optional[List[float]]] = [None] * n
        dec: List[Optional[bytes]] = [None] * n  # per real slot: 1 = initiator, per class
        for u in range(n):
            l, r = left[u], right[u]
            Lv = vals[l] if l >= 0 else None
            Rv = vals[r] if r >= 0 else None
            if is_dummy[u]:
                if Lv is not None and Rv is not None:
                    out = [x + y for x, y in zip(Lv, Rv)]
                else:
                    out = Lv if Lv is not None else Rv
            else:
                own, ca = cprod[u], cinit[u]
                if Lv is not None and Rv is not None:
                    stay = [o + x + y for o, x, y in zip(own, Lv, Rv)]
                    b = gain + Lv[ca] + Rv[ca]
                elif Lv is not None:
                    stay = [o + x for o, x in zip(own, Lv)]
                    b = gain + Lv[ca]
                elif Rv is not None:
                    stay = [o + y for o, y in zip(own, Rv)]
                    b = gain + Rv[ca]
                else:
                    stay = own.tolist()
                    b = gain
                dec[u] = bytes([b > v for v in stay])
                out = [b if b > v else v for v in stay]
            vals[u] = out
            if l >= 0:
                vals[l] = None
            if r >= 0:
                vals[r] = None
        self.memo_states += sum(ncls)
        # The root's class-0 value is > 0 exactly when its placement is
        # non-empty.
        if not vals[root][0] > 0.0:
            return self.solve(1)

        # Reconstruct in the sweep's traversal order, recording each
        # slot's nearest-initiator class for the rescoring.
        originals, states = ct.originals, ct.states
        chosen: Dict[Node, NodeState] = {}
        cls = [0] * n
        picked = bytearray(n)
        stack = [(root, 0)]
        while stack:
            u, c = stack.pop()
            if u < 0:
                continue
            cls[u] = c
            flags = dec[u]
            if flags is not None and flags[c]:
                picked[u] = 1
                chosen[originals[u]] = states[u]
                c = cinit[u]
            stack.append((left[u], c))
            stack.append((right[u], c))

        total = [0.0] * n
        for u in range(n):
            if picked[u]:
                o = 1.0
            elif is_dummy[u]:
                o = 0.0
            else:
                o = cprod[u][cls[u]]
            l, r = left[u], right[u]
            s = o + (total[l] if l >= 0 else 0.0)
            total[u] = s + (total[r] if r >= 0 else 0.0)
        return TreeDPResult(k=len(chosen), score=total[root], initiators=chosen)

    def beta_interval(self, chosen: TreeDPResult) -> Tuple[float, Optional[float]]:
        """The β interval on which ``chosen`` stays the penalised optimum.

        Over β each placement is a line ``score − β·(k − 1)``, and the
        penalised optimum is their upper envelope: convex and piecewise
        linear. ``chosen``, a :meth:`solve_penalized` result, is optimal
        on one interval of it. Each end is found by Newton steps of the
        same pass: intersect the chosen line with the last line found,
        solve at that β, and stop when the pass finds no placement above
        the chosen line by more than ``1e-9`` relative. The upper end
        starts from β = ``num_real + 1``, where one initiator is
        optimal; the lower end from β = 0.

        Returns:
            ``(beta_low, beta_high)``; ``beta_high`` is ``None`` when
            ``chosen.k == 1``, whose interval is unbounded above.
        """
        k_star, s_star = chosen.k, chosen.score

        def above(beta: float) -> Optional[TreeDPResult]:
            found = self.solve_penalized(beta)
            mine = s_star - beta * (k_star - 1)
            theirs = found.score - beta * (found.k - 1)
            if found.k != k_star and theirs > mine + _NEWTON_RTOL * max(1.0, abs(mine)):
                return found
            return None

        def newton(beta: float, line: Optional[TreeDPResult]) -> float:
            # One step per breakpoint crossed; k takes num_real values.
            for _ in range(self.tree.num_real):
                if line is None:
                    break
                beta = (line.score - s_star) / (line.k - k_star)
                line = above(beta)
            return beta

        low = newton(0.0, above(0.0))
        if k_star == 1:
            return low, None
        top = float(self.tree.num_real + 1)
        return low, newton(top, above(top))

    def _reconstruct(self, k: int) -> Dict[Node, NodeState]:
        """Walk the decision tables to recover the chosen initiators.

        Mirrors the recursive oracle's reconstruction stack order;
        subtrees with zero remaining budget are pruned outright (every
        decision there is trivially "no initiator, empty split").
        """
        ct = self.tree
        left, right, cinit = ct.left, ct.right, ct.cinit
        originals, states = ct.originals, ct.states
        dec = self._dec
        chosen: Dict[Node, NodeState] = {}
        stack = [(ct.root_pos, k, 0)]
        while stack:
            u, budget, a = stack.pop()
            if u < 0 or budget == 0:
                continue
            d = dec[u][a][budget - 1]
            m = d >> 1
            if d & 1:
                chosen[originals[u]] = states[u]
                ca = cinit[u]
                stack.append((left[u], m, ca))
                stack.append((right[u], budget - 1 - m, ca))
            else:
                stack.append((left[u], m, a))
                stack.append((right[u], budget - m, a))
        return chosen

