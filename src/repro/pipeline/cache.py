"""Content-addressed artifact caching for the detection pipeline.

Every step output RID may want to reuse — pruned graphs,
component splits, extracted cascade trees, per-tree DP solutions — is
addressed by a stable blake2b digest of *everything that determines it*
(:meth:`repro.pipeline.stages.Stage.key`):

``key = H(step name, step schema version, step config digest,
          input-graph content digest)``

The input-graph digest comes from :func:`repro.runtime.cache.graph_digest`,
which is memoized against the graph's mutation
:attr:`~repro.graphs.signed_digraph.SignedDiGraph.version` counter — so
on an unmutated graph instance the key costs one counter comparison, and
across instances (or processes) identical content maps to identical
keys. The config digest folds in exactly the
:class:`~repro.core.rid.RIDConfig` fields the step's row lists, so e.g. a
``beta`` change invalidates β-mode selection artifacts but *not* the
extracted trees or the budget-mode OPT curves.

Two layers:

* :class:`ArtifactCache` — in-process LRU, shared by all steps of one
  :class:`~repro.core.rid.RID` (``rid.cache``). This is what makes
  k-search sweeps, robustness re-runs and repeated CLI detections skip
  Edmonds/binarise/DP work already done.
* an optional on-disk layer via :class:`~repro.runtime.cache.TrialCache`
  (``RuntimeConfig.cache_dir``): the artifacts of rows with a codec are
  JSON-encoded with the codecs below, built on :mod:`repro.codec`, and
  survive across processes. Artifacts whose node identifiers are not
  int/str raise :class:`~repro.codec.CacheCodecError` and simply stay
  memory-only. The decoders accept only what the encoders write, so an
  entry they reject reads as a miss and is recomputed and overwritten.

Artifacts must be treated as immutable once cached: RID hands the
*same* tree objects to every caller that hits the cache.
"""

from __future__ import annotations

import reprlib
from collections import OrderedDict
from typing import Any, Dict, List

from repro.codec import CacheCodecError, decode_graph, decode_states, encode_graph, encode_states
from repro.graphs.signed_digraph import SignedDiGraph
from repro.runtime.cache import stable_digest

#: Sentinel distinguishing "cached None" from "miss".
MISS = object()


class ArtifactCache:
    """Bounded in-process LRU store for content-addressed stage outputs.

    Holds at most ``max_entries`` artifacts; inserting past the bound
    evicts the least recently used entry (lookups and puts both refresh
    recency). The default, 4096, is sized for the long-lived RID instances —
    warm serve detectors and stream sessions; a one-shot detect never
    fills it.

    Example:
        >>> cache = ArtifactCache(max_entries=2)
        >>> cache.put("k1", [1, 2]); cache.lookup("k1")
        [1, 2]
        >>> cache.lookup("absent") is MISS
        True
    """

    def __init__(self, max_entries: int = 4096) -> None:
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

    def put(self, key: str, value: Any) -> None:
        """Insert (or refresh) an artifact, evicting LRU entries."""
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1

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


def encode_graph_list(graphs: List[SignedDiGraph]) -> dict:
    """Encode an ordered list of graphs (e.g. a component's cascade trees)."""
    return {"graphs": [encode_graph(g) for g in graphs]}


def decode_graph_list(payload: dict) -> List[SignedDiGraph]:
    """Inverse of :func:`encode_graph_list` (order preserved)."""
    graphs = payload["graphs"]
    if type(graphs) is not list:
        raise CacheCodecError(f"'graphs' must be a list, got {type(graphs).__name__}")
    return [decode_graph(p) for p in graphs]


def _int(payload: dict, name: str) -> int:
    """``payload[name]`` when it is a JSON int (a bool is not)."""
    value = payload[name]
    if type(value) is not int:
        raise CacheCodecError(f"artifact field {name!r} must be an int, got {reprlib.repr(value)}")
    return value


def _number(payload: dict, name: str) -> float:
    """``payload[name]`` when it is a JSON number (a bool is not)."""
    value = payload[name]
    if type(value) not in (int, float):
        raise CacheCodecError(f"artifact field {name!r} must be a number, got {reprlib.repr(value)}")
    return value


def encode_selection(selection: "Any") -> dict:
    """Encode a :class:`~repro.core.rid.TreeSelection` (greedy artifact)."""
    return {
        "tree_size": selection.tree_size,
        "k": selection.k,
        "score": selection.score,
        "penalized_objective": selection.penalized_objective,
        "initiators": encode_states(selection.initiators),
        "scanned_k": selection.scanned_k,
    }


def decode_selection(payload: dict) -> "Any":
    """Inverse of :func:`encode_selection`."""
    from repro.core.rid import TreeSelection

    return TreeSelection(
        tree_size=_int(payload, "tree_size"),
        k=_int(payload, "k"),
        score=_number(payload, "score"),
        penalized_objective=_number(payload, "penalized_objective"),
        initiators=decode_states(payload["initiators"]),
        scanned_k=_int(payload, "scanned_k"),
    )


def encode_curve(curve: "Any") -> dict:
    """Encode a :class:`~repro.pipeline.stages.CurveArtifact` (budget mode)."""
    return {
        "tree_size": curve.tree_size,
        "curve": [
            {"k": r.k, "score": r.score, "initiators": encode_states(r.initiators)}
            for r in curve.results
        ],
    }


def decode_curve(payload: dict) -> "Any":
    """Inverse of :func:`encode_curve`; entry ``i`` must solve ``k = i + 1``."""
    from repro.kernel.tree_dp import TreeDPResult
    from repro.pipeline.stages import CurveArtifact

    entries = payload["curve"]
    if type(entries) is not list:
        raise CacheCodecError(f"'curve' must be a list, got {type(entries).__name__}")
    results = []
    for k, entry in enumerate(entries, start=1):
        if _int(entry, "k") != k:
            raise CacheCodecError(f"curve entry {k - 1} must solve k = {k}")
        results.append(
            TreeDPResult(
                k=k,
                score=_number(entry, "score"),
                initiators=decode_states(entry["initiators"]),
            )
        )
    return CurveArtifact(tree_size=_int(payload, "tree_size"), results=results)
