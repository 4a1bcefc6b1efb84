"""Directed reachability, the one graph walk the property tests need."""

from typing import Set

from repro.graphs.signed_digraph import SignedDiGraph
from repro.types import Node


def reachable_from(graph: SignedDiGraph, source: Node) -> Set[Node]:
    """Nodes reachable from ``source`` along directed edges, itself included."""
    seen = {source}
    stack = [source]
    while stack:
        for nxt in graph.successors(stack.pop()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen
