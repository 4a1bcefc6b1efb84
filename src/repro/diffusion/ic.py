"""The classic Independent Cascade (IC) model (Kempe et al., KDD 2003).

Signs are ignored entirely — this is the unsigned baseline the paper's
Sec. III-A1 describes and Figure 2 contrasts MFC against. To keep results
comparable with signed models, activated nodes still *carry* the state
they would inherit through the sign product, but signs play no role in
the activation probabilities and there is no flipping.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from repro.diffusion.base import DiffusionModel, DiffusionResult, check_seeds
from repro.graphs.signed_digraph import SignedDiGraph
from repro.types import Node, NodeState
from repro.utils.rng import RandomSource, spawn_rng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.compile import CompiledGraph


class ICModel(DiffusionModel):
    """Independent Cascade over the diffusion network's weights.

    Cascades run on the CSR-compiled kernel of :mod:`repro.kernel`; the
    original dict-of-dict loop is the test oracle in
    ``tests/oracles/cascades.py``.

    Args:
        propagate_signs: when True (default), an activated node takes
            state ``s(u)·s_D(u,v)`` so the outcome is comparable with
            signed models; when False everyone simply takes the
            activator's state (pure unsigned IC).
        backend: kernel execution backend (``'python'``, ``'numpy'``,
            ``'auto'``; see :mod:`repro.kernel.backends`). ``None``
            defers to the ``REPRO_KERNEL_BACKEND`` environment default.
    """

    name = "ic"

    def __init__(
        self,
        propagate_signs: bool = True,
        backend: "str | None" = None,
    ) -> None:
        self.propagate_signs = propagate_signs
        # Underscored, but special-cased by model_digest: statistical
        # backends fork cache keys (see repro.kernel.backends).
        self._backend = backend

    @property
    def backend(self) -> "str | None":
        """The requested kernel backend (``None`` = environment default)."""
        return self._backend

    def run(
        self,
        diffusion: SignedDiGraph,
        seeds: Dict[Node, NodeState],
        rng: RandomSource = None,
    ) -> DiffusionResult:
        # Lazy import to avoid a module-level cycle with repro.kernel.
        from repro.kernel.cascade import run_ic_compiled
        from repro.kernel.compile import compile_graph

        validated = check_seeds(diffusion, seeds)
        random = spawn_rng(rng, self.name)
        return run_ic_compiled(
            compile_graph(diffusion),
            validated,
            random,
            self.propagate_signs,
            backend=self._backend,
        )

    def run_compiled(
        self,
        compiled: "CompiledGraph",
        seeds: Dict[Node, NodeState],
        rng: RandomSource = None,
    ) -> DiffusionResult:
        """Simulate over an already-compiled graph (see ``MFCModel.run_compiled``)."""
        from repro.kernel.cascade import check_seeds_compiled, run_ic_compiled

        validated = check_seeds_compiled(compiled, seeds)
        random = spawn_rng(rng, self.name)
        return run_ic_compiled(
            compiled, validated, random, self.propagate_signs, backend=self._backend
        )
