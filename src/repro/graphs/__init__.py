"""Signed directed graph substrate.

This subpackage implements the paper's network definitions from scratch:

* :class:`~repro.graphs.signed_digraph.SignedDiGraph` — Definition 1's
  weighted signed social network (directed edges with a sign in ``{-1,+1}``
  and a weight in ``[0,1]``), plus node states for infected snapshots;
* :mod:`~repro.graphs.transforms` — Definition 2's diffusion network
  (edge reversal with sign/weight carry-over) and related views;
* :mod:`~repro.graphs.generators` — synthetic signed networks, including
  generators calibrated to the published statistics of the Epinions and
  Slashdot datasets used in the paper's evaluation;
* :mod:`~repro.graphs.io` — SNAP signed edge lists;
* :mod:`~repro.graphs.stats` — the summary statistics behind Table II.
"""

from repro.graphs.signed_digraph import EdgeData, SignedDiGraph
from repro.graphs.transforms import positive_subgraph, to_diffusion_network

__all__ = [
    "EdgeData",
    "SignedDiGraph",
    "to_diffusion_network",
    "positive_subgraph",
]
