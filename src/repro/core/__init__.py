"""The paper's primary contribution: the RID detection framework.

Pipeline stages (Sec. III-E), each its own module:

1. :mod:`~repro.core.components` — infected connected-component detection;
2. :mod:`~repro.core.arborescence` — maximum-weight spanning graph
   (Algorithm 2), circle contraction (Algorithm 3), the full
   Chu-Liu/Edmonds maximum spanning arborescence and its split into
   cascade trees (Algorithm 4);
3. :mod:`~repro.core.binarize` — general-tree -> binary-tree transform
   with non-participating dummy nodes (Fig. 3);
4. :mod:`repro.kernel.tree_dp` — the ``OPT(u, I, S, k)`` dynamic program
   for k-ISOMIT-BT (Sec. III-D), compiled to flat arrays;
5. :mod:`~repro.core.rid` — β-penalised model selection tying it all
   together (Sec. III-E3);
6. :mod:`~repro.core.likelihood` — the per-link factor ``g`` of the
   MFC likelihood (Sec. III-B), which binarisation stores as each
   binary-tree slot's incoming-edge factor;
7. :mod:`~repro.core.imputation` — unknown-state ('?') masking and
   MFC-rule completion.

:class:`~repro.core.rid.RID` composes these steps through the cached
rows of :mod:`repro.pipeline.stages`;
``RID(RIDConfig(...)).forest(infected)`` extracts a snapshot's cascade
forest on its own. The detector protocol
and the paper's comparison methods (RID-Tree, RID-Positive) live in
:mod:`repro.detectors`. The exact ISOMIT objective is NP-hard
(Lemma 3.1); its exhaustive solvers and the full noisy-or likelihood
they score with certify RID on toy snapshots from
``tests/oracles/exact.py``.
"""

from repro.core.components import infected_components, weakly_connected_components
from repro.core.imputation import impute_unknown_states, mask_states
from repro.core.likelihood import g_link
from repro.core.rid import RID, RIDConfig

__all__ = [
    "RID",
    "RIDConfig",
    "infected_components",
    "weakly_connected_components",
    "g_link",
    "mask_states",
    "impute_unknown_states",
]
