"""Content-addressed artifact caching for the detection pipeline.

Every stage output the engine may want to reuse — pruned graphs,
component splits, extracted cascade trees, per-tree DP solutions — is
addressed by a stable blake2b digest of *everything that determines it*:

``key = H(stage name, stage schema version, stage config digest,
          input-graph content digest)``

The input-graph digest comes from :func:`repro.runtime.cache.graph_digest`,
which is memoized against the graph's mutation
:attr:`~repro.graphs.signed_digraph.SignedDiGraph.version` counter — so
on an unmutated graph instance the key costs one counter comparison, and
across instances (or processes) identical content maps to identical
keys. The stage config digest folds in exactly the
:class:`~repro.core.rid.RIDConfig` fields that stage reads, so e.g. a
``beta`` change invalidates greedy k-search artifacts but *not* the
extracted trees or the budget-mode OPT curves.

Two layers:

* :class:`ArtifactCache` — in-process LRU, shared by all stages of one
  :class:`~repro.pipeline.engine.DetectionEngine`. This is what makes
  k-search sweeps, robustness re-runs and repeated CLI detections skip
  Edmonds/binarise/DP work already done.
* an optional on-disk layer via :class:`~repro.runtime.cache.TrialCache`
  (``RuntimeConfig.cache_dir``): persistable artifacts are JSON-encoded
  with the codecs below and survive across processes. Artifacts whose
  node identifiers are not int/str raise
  :class:`~repro.runtime.cache.CacheCodecError` and simply stay
  memory-only.

Artifacts must be treated as immutable once cached: the engine hands the
*same* tree objects to every caller that hits the cache.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, List

from repro.graphs.signed_digraph import SignedDiGraph
from repro.runtime.cache import (
    _decode_node,
    _encode_node,
    stable_digest,
)
from repro.types import NodeState

#: Sentinel distinguishing "cached None" from "miss".
MISS = object()


class ArtifactCache:
    """Bounded in-process LRU store for content-addressed stage outputs.

    Holds at most ``max_entries`` artifacts; inserting past the bound
    evicts the least recently used entry (lookups and puts both refresh
    recency).

    Example:
        >>> cache = ArtifactCache(max_entries=2)
        >>> cache.put("k1", [1, 2]); cache.get("k1")
        [1, 2]
        >>> cache.get("absent") is None
        True
    """

    def __init__(self, max_entries: int = 512) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._entries: "OrderedDict[str, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def lookup(self, key: str) -> Any:
        """The cached artifact, or :data:`MISS` (never evicts on read)."""
        try:
            value = self._entries[key]
        except KeyError:
            self.misses += 1
            return MISS
        self._entries.move_to_end(key)
        self.hits += 1
        return value

    def get(self, key: str, default: Any = None) -> Any:
        """Dict-style accessor (cannot distinguish a cached ``default``)."""
        value = self.lookup(key)
        return default if value is MISS else value

    def put(self, key: str, value: Any) -> None:
        """Insert (or refresh) an artifact, evicting LRU entries."""
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1

    def discard(self, key: str) -> bool:
        """Drop one entry; True when it existed."""
        if key not in self._entries:
            return False
        del self._entries[key]
        return True

    def clear(self) -> None:
        """Drop every entry (hit/miss counters are kept)."""
        self._entries.clear()

    def keys(self) -> List[str]:
        """Current keys, LRU first (for eviction-order tests/forensics)."""
        return list(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> Dict[str, Any]:
        """Hit/miss/size snapshot (for reports and tests)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._entries),
            "max_entries": self.max_entries,
            "evictions": self.evictions,
        }


def artifact_key(stage: str, version: int, config_digest: str, content_digest: str) -> str:
    """The content address of one stage output (see module docstring)."""
    return stable_digest("pipeline", stage, version, config_digest, content_digest)


# ---------------------------------------------------------------------------
# JSON codecs for the persistent layer
# ---------------------------------------------------------------------------


def encode_graph(graph: SignedDiGraph) -> dict:
    """JSON-ready encoding of a graph (topology, signs, weights, states).

    Nodes and edges are emitted repr-sorted; node iteration order is not
    semantically meaningful anywhere in the pipeline (all consumers sort).

    Raises:
        CacheCodecError: when a node identifier is not int or str.
    """
    return {
        "name": graph.name,
        "nodes": [
            [_encode_node(n), int(graph.state(n))]
            for n in sorted(graph.nodes(), key=repr)
        ],
        "edges": [
            [_encode_node(u), _encode_node(v), int(d.sign), d.weight]
            for u, v, d in sorted(
                graph.edges(), key=lambda e: (repr(e[0]), repr(e[1]))
            )
        ],
    }


def decode_graph(payload: dict) -> SignedDiGraph:
    """Inverse of :func:`encode_graph`."""
    graph = SignedDiGraph(name=payload.get("name", ""))
    for node, state in payload["nodes"]:
        graph.add_node(_decode_node(node), NodeState(state))
    for u, v, sign, weight in payload["edges"]:
        graph.add_edge(_decode_node(u), _decode_node(v), sign, weight)
    return graph


def encode_graph_list(graphs: List[SignedDiGraph]) -> dict:
    """Encode an ordered list of graphs (e.g. a component's cascade trees)."""
    return {"graphs": [encode_graph(g) for g in graphs]}


def decode_graph_list(payload: dict) -> List[SignedDiGraph]:
    """Inverse of :func:`encode_graph_list` (order preserved)."""
    return [decode_graph(p) for p in payload["graphs"]]


def encode_state_map(states: Dict[Any, NodeState]) -> list:
    """Encode a node→state mapping, insertion order preserved."""
    return [[_encode_node(n), int(s)] for n, s in states.items()]


def decode_state_map(pairs: list) -> Dict[Any, NodeState]:
    """Inverse of :func:`encode_state_map`."""
    return {_decode_node(n): NodeState(s) for n, s in pairs}


def encode_selection(selection: "Any") -> dict:
    """Encode a :class:`~repro.core.rid.TreeSelection` (greedy artifact)."""
    return {
        "tree_size": selection.tree_size,
        "k": selection.k,
        "score": selection.score,
        "penalized_objective": selection.penalized_objective,
        "initiators": encode_state_map(selection.initiators),
        "scanned_k": selection.scanned_k,
    }


def decode_selection(payload: dict) -> "Any":
    """Inverse of :func:`encode_selection`."""
    from repro.core.rid import TreeSelection

    return TreeSelection(
        tree_size=payload["tree_size"],
        k=payload["k"],
        score=payload["score"],
        penalized_objective=payload["penalized_objective"],
        initiators=decode_state_map(payload["initiators"]),
        scanned_k=payload["scanned_k"],
    )


def encode_curve(curve: "Any") -> dict:
    """Encode a :class:`~repro.pipeline.stages.CurveArtifact` (budget mode)."""
    return {
        "tree_size": curve.tree_size,
        "curve": [
            {"k": r.k, "score": r.score, "initiators": encode_state_map(r.initiators)}
            for r in curve.results
        ],
    }


def decode_curve(payload: dict) -> "Any":
    """Inverse of :func:`encode_curve`."""
    from repro.kernel.tree_dp import TreeDPResult
    from repro.pipeline.stages import CurveArtifact

    return CurveArtifact(
        tree_size=payload["tree_size"],
        results=[
            TreeDPResult(
                k=entry["k"],
                score=entry["score"],
                initiators=decode_state_map(entry["initiators"]),
            )
            for entry in payload["curve"]
        ],
    )
