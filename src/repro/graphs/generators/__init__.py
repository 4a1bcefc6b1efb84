"""Synthetic signed-network generators.

``random_graphs`` provides classic families (Erdős–Rényi, preferential
attachment, Watts–Strogatz) with sign assignment;
``snapshot_like`` provides generators calibrated to the published
statistics of the Epinions and Slashdot datasets used in the paper's
evaluation (our stand-in for the SNAP downloads, see DESIGN.md §3);
``trees`` provides tree-shaped gadgets for the dynamic-programming tests.
"""

from repro.graphs.generators.random_graphs import (
    signed_erdos_renyi,
    signed_preferential_attachment,
    signed_watts_strogatz,
)
from repro.graphs.generators.snapshot_like import (
    DatasetProfile,
    EPINIONS_PROFILE,
    SLASHDOT_PROFILE,
    WIKI_ELEC_PROFILE,
    generate_epinions_like,
    generate_profiled_network,
    generate_slashdot_like,
    generate_wiki_elec_like,
)
from repro.graphs.generators.trees import (
    random_general_tree,
    path_graph,
    star_graph,
)

__all__ = [
    "signed_erdos_renyi",
    "signed_preferential_attachment",
    "signed_watts_strogatz",
    "DatasetProfile",
    "EPINIONS_PROFILE",
    "SLASHDOT_PROFILE",
    "WIKI_ELEC_PROFILE",
    "generate_epinions_like",
    "generate_slashdot_like",
    "generate_wiki_elec_like",
    "generate_profiled_network",
    "random_general_tree",
    "path_graph",
    "star_graph",
]
