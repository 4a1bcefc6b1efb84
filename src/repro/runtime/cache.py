"""Content-addressed on-disk JSON cache for per-trial results.

A cached trial is keyed by a stable :func:`blake2b <hashlib.blake2b>`
digest of everything that determines its outcome — the graph (nodes,
states, signs, weights), the model parameters, the seed assignment, the
base seed and the trial index — so a key hit is safe to reuse across
runs and processes. Payloads are whatever the caller encodes
(``simulate_many`` stores ``DiffusionResult.to_json``); a
:class:`~repro.codec.CacheCodecError` makes the executor skip caching
that trial instead of failing the run.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Dict, Optional, Union

from repro.graphs.signed_digraph import SignedDiGraph
from repro.types import Node, NodeState


def stable_digest(*parts: object) -> str:
    """A cross-platform hex digest of ``parts``.

    ``repr`` of ints/floats/strings/tuples is stable across CPython
    platforms and sessions (unlike ``hash``), and blake2b is part of
    the standard library everywhere we run.
    """
    material = "\x1f".join(repr(p) for p in parts).encode("utf-8")
    return hashlib.blake2b(material, digest_size=16).hexdigest()


def graph_digest(graph: SignedDiGraph) -> str:
    """Digest of a graph's full content (topology, signs, weights, states).

    Memoized per graph instance against the graph's mutation
    :attr:`~repro.graphs.signed_digraph.SignedDiGraph.version` counter:
    repeated cached-run calls on the same unmutated graph used to
    re-sort and re-hash all ``V + E`` items every time; now only the
    first call (and the first call after any mutation) pays for it.
    """
    version = graph.version
    cached = getattr(graph, "_digest_cache", None)
    if cached is not None and cached[0] == version:
        return cached[1]
    h = hashlib.blake2b(digest_size=16)
    for node in sorted(graph.nodes(), key=repr):
        h.update(repr((node, int(graph.state(node)))).encode("utf-8"))
    for u, v, data in sorted(graph.edges(), key=lambda e: (repr(e[0]), repr(e[1]))):
        h.update(repr((u, v, int(data.sign), data.weight)).encode("utf-8"))
    digest = h.hexdigest()
    graph._digest_cache = (version, digest)
    return digest


def model_digest(model: object) -> str:
    """Digest of a diffusion model's identity and parameters.

    Underscored attributes are excluded: they hold execution details
    that must not fork cache keys.

    One exception: a kernel ``_backend`` selection that resolves to a
    backend outside the bit-identical tier (the numpy cascade backend
    consumes randomness in a different order, so its trials are drawn
    from the same distribution but are not the same numbers) **is**
    folded in, as ``('backend', <resolved name>)``. Bit-tier selections
    (``'python'``, or any value with numpy absent) leave the digest
    unchanged, so the default configuration keeps its historical keys.
    """
    name = getattr(model, "name", type(model).__name__)
    params = tuple(
        sorted(
            (k, repr(v)) for k, v in vars(model).items() if not k.startswith("_")
        )
    )
    backend = getattr(model, "_backend", None)
    if backend is not None:
        from repro.kernel.backends import BIT_IDENTICAL, resolve_backend

        engine = resolve_backend(backend)
        if engine.tier != BIT_IDENTICAL:
            params = params + (("backend", engine.name),)
    return stable_digest(name, params)


def seeds_digest(seeds: Dict[Node, NodeState]) -> str:
    """Digest of a seed assignment."""
    return stable_digest(tuple(sorted(((repr(n), int(s)) for n, s in seeds.items()))))


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------


class TrialCache:
    """A directory of ``<key>.json`` files, one per cached trial.

    Writes go through a temp file + :func:`os.replace` so a crashed or
    concurrent run never leaves a torn payload behind; corrupt or
    unreadable entries behave as misses.
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def load(self, key: str) -> Optional[dict]:
        """The cached payload for ``key``, or None on a miss."""
        path = self._path(key)
        try:
            with path.open("r", encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, ValueError):
            return None

    def store(self, key: str, payload: dict) -> None:
        """Atomically persist ``payload`` under ``key``."""
        fd, tmp = tempfile.mkstemp(dir=str(self.directory), suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, separators=(",", ":"))
            os.replace(tmp, self._path(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.json"))
