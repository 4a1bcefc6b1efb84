"""Reading and writing SNAP signed edge lists.

The exact format of the public ``soc-sign-epinions.txt`` and
``soc-sign-Slashdot*.txt`` files the paper evaluates on: ``#``-prefixed
comment header, then whitespace-separated ``FromNodeId  ToNodeId  Sign``
rows with sign in ``{-1, 1}``. Weights are not part of that format; they
are assigned afterwards by :mod:`repro.weights.jaccard`, mirroring the
paper's setup (Sec. IV-B3). The JSON spelling of a graph, with weights
and node states, is :func:`repro.codec.encode_graph`.

Gzip-compressed files (``.gz`` suffix) are handled transparently, since the
SNAP downloads ship gzipped.
"""

from __future__ import annotations

import gzip
import io
from pathlib import Path
from typing import IO, Iterator, Union

from repro.errors import GraphFormatError
from repro.graphs.signed_digraph import SignedDiGraph

PathLike = Union[str, Path]


def _open_text(path: PathLike, mode: str) -> IO[str]:
    """Open a possibly-gzipped file in text mode."""
    path = Path(path)
    if path.suffix == ".gz":
        return io.TextIOWrapper(gzip.open(path, mode + "b"), encoding="utf-8")
    return open(path, mode, encoding="utf-8")


# --------------------------------------------------------------------------
# SNAP signed edge lists
# --------------------------------------------------------------------------


def iter_snap_edges(lines: Iterator[str]) -> Iterator[tuple]:
    """Parse SNAP signed edge-list lines into ``(u, v, sign)`` int triples.

    Raises:
        GraphFormatError: on malformed rows.
    """
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise GraphFormatError(
                f"expected 'from to sign', got {line!r}", line_number=lineno
            )
        try:
            u, v, sign = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            raise GraphFormatError(
                f"non-integer field in {line!r}", line_number=lineno
            ) from None
        if sign not in (-1, 1):
            raise GraphFormatError(
                f"sign must be -1 or 1, got {sign}", line_number=lineno
            )
        yield u, v, sign


def read_snap_signed_edgelist(
    path: PathLike, default_weight: float = 1.0, skip_self_loops: bool = True
) -> SignedDiGraph:
    """Load a SNAP signed network file into a :class:`SignedDiGraph`.

    The SNAP files carry no weights; every edge receives ``default_weight``
    and is expected to be re-weighted (e.g. by Jaccard coefficients) before
    simulation, exactly as the paper does.

    Args:
        path: file path; ``.gz`` files are decompressed on the fly.
        default_weight: placeholder weight for every edge.
        skip_self_loops: drop ``u -> u`` rows (present in raw SNAP dumps,
            meaningless for diffusion).
    """
    graph = SignedDiGraph(name=Path(path).stem)
    with _open_text(path, "r") as handle:
        for u, v, sign in iter_snap_edges(iter(handle)):
            if skip_self_loops and u == v:
                continue
            graph.add_edge(u, v, sign, default_weight)
    return graph


def write_snap_signed_edgelist(graph: SignedDiGraph, path: PathLike) -> None:
    """Write ``graph`` in SNAP signed edge-list format (weights dropped)."""
    with _open_text(path, "w") as handle:
        handle.write(f"# Directed signed network: {graph.name or 'graph'}\n")
        handle.write(f"# Nodes: {graph.number_of_nodes()} Edges: {graph.number_of_edges()}\n")
        handle.write("# FromNodeId\tToNodeId\tSign\n")
        for u, v, data in graph.iter_edges():
            handle.write(f"{u}\t{v}\t{int(data.sign)}\n")

