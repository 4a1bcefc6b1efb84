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
6. :mod:`~repro.core.likelihood` — the MFC likelihood machinery
   (Sec. III-B) shared by the DP and by exact brute-force solvers;
7. :mod:`~repro.core.exact` — exhaustive ISOMIT solvers certifying the
   pipeline on small instances;
8. :mod:`~repro.core.imputation` — unknown-state ('?') masking and
   MFC-rule completion.

The staged :class:`~repro.pipeline.engine.DetectionEngine` composes
these steps; ``DetectionEngine().forest(RIDConfig(...), infected)``
extracts a snapshot's cascade forest on its own. The detector protocol
and the paper's comparison methods (RID-Tree, RID-Positive) live in
:mod:`repro.detectors`.
"""

from repro.core.components import infected_components, weakly_connected_components
from repro.core.exact import exact_isomit_additive, exact_isomit_likelihood
from repro.core.imputation import impute_unknown_states, mask_states
from repro.core.likelihood import (
    g_link,
    network_likelihood,
    node_infection_probability,
    path_probability,
)
from repro.core.rid import RID, RIDConfig

__all__ = [
    "RID",
    "RIDConfig",
    "infected_components",
    "weakly_connected_components",
    "g_link",
    "path_probability",
    "node_infection_probability",
    "network_likelihood",
    "exact_isomit_likelihood",
    "exact_isomit_additive",
    "mask_states",
    "impute_unknown_states",
]
