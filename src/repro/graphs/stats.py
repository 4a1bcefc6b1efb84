"""Descriptive statistics for signed directed graphs.

These back the paper's Table II (dataset properties) and the calibration
of the Epinions-like / Slashdot-like synthetic generators: node and edge
counts, positive-edge fraction, reciprocity and maximum degrees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.graphs.signed_digraph import SignedDiGraph
from repro.types import Sign


@dataclass
class GraphSummary:
    """Headline statistics of a signed directed graph (Table II row)."""

    name: str
    num_nodes: int
    num_edges: int
    positive_fraction: float
    reciprocity: float
    max_in_degree: int
    max_out_degree: int
    mean_degree: float
    link_type: str = "directed"

    def as_row(self) -> Tuple[str, int, int, str]:
        """The (network, #nodes, #links, link type) row of Table II."""
        return (self.name, self.num_nodes, self.num_edges, self.link_type)


def positive_fraction(graph: SignedDiGraph) -> float:
    """Fraction of edges carrying a positive sign (0 for empty graphs)."""
    total = graph.number_of_edges()
    if total == 0:
        return 0.0
    positives = sum(1 for _, _, d in graph.iter_edges() if d.sign is Sign.POSITIVE)
    return positives / total


def reciprocity(graph: SignedDiGraph) -> float:
    """Fraction of directed edges whose reverse edge also exists."""
    total = graph.number_of_edges()
    if total == 0:
        return 0.0
    mutual = sum(1 for u, v, _ in graph.iter_edges() if graph.has_edge(v, u))
    return mutual / total


def summarize(graph: SignedDiGraph, name: str = "") -> GraphSummary:
    """Compute the :class:`GraphSummary` for ``graph``."""
    nodes = graph.nodes()
    n = len(nodes)
    mean_degree = (2 * graph.number_of_edges() / n) if n else 0.0
    return GraphSummary(
        name=name or graph.name or "graph",
        num_nodes=n,
        num_edges=graph.number_of_edges(),
        positive_fraction=positive_fraction(graph),
        reciprocity=reciprocity(graph),
        max_in_degree=max((graph.in_degree(v) for v in nodes), default=0),
        max_out_degree=max((graph.out_degree(v) for v in nodes), default=0),
        mean_degree=mean_degree,
    )
