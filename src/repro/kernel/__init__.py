"""CSR-compiled cascade kernel.

A cascade simulator that walks the dict-of-dict
:class:`~repro.graphs.signed_digraph.SignedDiGraph` directly (the
reference loops in ``tests/oracles/cascades.py``) re-sorts the successor
list by ``repr`` on every frontier visit, and every attempt does two
dict-chain lookups (sign, weight) plus a ``(u, v)`` tuple-set membership
test for the one-attempt-per-pair rule. That is the per-attempt cost
every Monte-Carlo pipeline in the library would pay thousands of times
over.

This package compiles a graph once into a flat int-indexed CSR form
(:func:`compile_graph` → :class:`CompiledGraph`) — contiguous stdlib
arrays of successor offsets, targets pre-sorted in the reference visit
order, signs, weights, and per-α attempt probabilities — and runs the
cascade over those arrays (:func:`run_mfc_compiled`,
:func:`run_ic_compiled`). Node states live in a ``bytearray``; the
attempted-pair set becomes a per-edge byte flag, because an ordered
pair *is* a CSR edge slot. The RNG is consumed in exactly the reference
draw order, so results are **bit-identical**: same events, same final
states, same round count (pinned by
``tests/property/test_kernel_identity.py``).

Compiled forms are cached per graph instance, keyed on the graph's
cheap :attr:`~repro.graphs.signed_digraph.SignedDiGraph.structure_version`
mutation counter, so repeated simulation on an unchanged graph compiles
once and any topology/sign/weight mutation recompiles on next use.

The same playbook applies to detection's per-tree hot path:
:mod:`repro.kernel.tree_dp` compiles a binarised cascade tree into flat
post-order arrays (:func:`compile_binary_tree` →
:class:`CompiledBinaryTree`) and runs the Sec. III-D k-ISOMIT-BT
dynamic program as a single iterative sweep
(:class:`TreeDPKernel`), bit-identical to the recursive reference
solver in ``tests/oracles/tree_dp.py``.

*How* cascades are swept over the compiled graph is selectable:
:mod:`repro.kernel.backends` dispatches between the interpreted
``python`` loops (bit-identical tier, zero dependencies, the default)
and an optional vectorized ``numpy`` backend (statistical-identity
tier). See that package's docstring and ``docs/algorithms.md`` §12.
"""

from repro.kernel.backends import (
    default_backend_name,
    numpy_available,
    resolve_backend,
)
from repro.kernel.compile import CompiledGraph, compile_graph
from repro.kernel.cascade import (
    check_seeds_compiled,
    run_ic_compiled,
    run_mfc_compiled,
)
from repro.kernel.batch import (
    CascadeBatchSummary,
    run_ic_batch,
    run_mfc_batch,
)
from repro.kernel.tree_dp import (
    CompiledBinaryTree,
    TreeDPKernel,
    compile_binary_tree,
)

__all__ = [
    "CompiledGraph",
    "compile_graph",
    "check_seeds_compiled",
    "run_ic_compiled",
    "run_mfc_compiled",
    "CascadeBatchSummary",
    "run_ic_batch",
    "run_mfc_batch",
    "CompiledBinaryTree",
    "TreeDPKernel",
    "compile_binary_tree",
    "default_backend_name",
    "numpy_available",
    "resolve_backend",
]
