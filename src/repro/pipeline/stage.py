"""The ``Stage`` protocol of the staged detection engine.

A stage is one cached box of the RID pipeline graph (Sec. III-E):

    Prune -> ComponentSplit -> [per component] Arborescence
          -> [per tree] Binarize -> TreeDP -> Selection

Selection, the uncached cross-tree step, is a plain class the engine
calls directly (:class:`~repro.pipeline.stages.SelectionStage`).

Each concrete stage declares:

* ``name`` / ``version`` — its identity and schema version, folded into
  every cache key so a behavioural change invalidates old artifacts;
* ``config_digest(config)`` — a digest of exactly the
  :class:`~repro.core.rid.RIDConfig` fields the stage reads;
* ``run(ctx, item)`` — the actual computation (records its own spans on
  ``ctx.recorder``);
* optional JSON ``encode``/``decode`` hooks for the persistent layer.

:meth:`Stage.execute` wraps ``run`` with the two-layer artifact cache:
in-process :class:`~repro.pipeline.cache.ArtifactCache` first, then the
optional on-disk :class:`~repro.runtime.cache.TrialCache`, then compute.
The engine calls ``execute`` for whole-graph stages and uses the same
``cache_key``/``lookup``/``commit`` primitives to batch per-component
and per-tree work units before fanning them out over the process pool.

Structural counters (``rid.components``, ``rid.trees``, ...) are the
engine's job, *outside* the cached compute, so metric totals do not
depend on cache temperature; spans and timing-like records live inside
``run`` and are only emitted when work actually happens.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.codec import CacheCodecError
from repro.core.rid import RIDConfig
from repro.obs.recorder import NULL, Recorder
from repro.pipeline.cache import MISS, ArtifactCache, artifact_key
from repro.runtime.cache import TrialCache, stable_digest
from repro.runtime.config import SERIAL, RuntimeConfig


@dataclass
class StageContext:
    """Everything a stage needs besides its input item.

    Attributes:
        config: the RID hyper-parameters of this detection run.
        recorder: observability sink for spans/counters.
        cache: the in-process artifact cache (shared per engine).
        store: optional on-disk artifact store (from
            ``RuntimeConfig.cache_dir``); ``None`` disables persistence.
        runtime: worker/chunk configuration for stage fan-out.
    """

    config: RIDConfig
    recorder: Recorder = NULL
    cache: ArtifactCache = field(default_factory=ArtifactCache)
    store: Optional[TrialCache] = None
    runtime: RuntimeConfig = SERIAL


class Stage(abc.ABC):
    """One pipeline stage; see the module docstring for the contract."""

    #: Stable stage identity (used in cache keys and progress labels).
    name: str = "stage"
    #: Schema version; bump when ``run``'s behaviour or output changes.
    version: int = 1
    #: Whether artifacts may spill to the on-disk store.
    persist: bool = False

    def config_digest(self, config: RIDConfig) -> str:
        """Digest of the config fields this stage depends on (default: none)."""
        return stable_digest(self.name)

    def cache_key(self, ctx: StageContext, content_digest: Optional[str]) -> Optional[str]:
        """The artifact address for an input with ``content_digest``.

        ``None`` (either argument) opts the item out of caching.
        """
        if content_digest is None:
            return None
        return artifact_key(
            self.name, self.version, self.config_digest(ctx.config), content_digest
        )

    @abc.abstractmethod
    def run(self, ctx: StageContext, item: Any) -> Any:
        """Compute the stage output for ``item`` (no cache involvement)."""

    # -- persistence hooks (override in persistable stages) -------------

    def encode(self, value: Any) -> dict:
        """JSON-encode an artifact for the on-disk store."""
        raise CacheCodecError(f"stage {self.name!r} artifacts are memory-only")

    def decode(self, payload: dict) -> Any:
        """Rebuild an artifact from its on-disk JSON payload."""
        raise CacheCodecError(f"stage {self.name!r} artifacts are memory-only")

    # -- cache plumbing --------------------------------------------------

    def lookup(self, ctx: StageContext, key: Optional[str]) -> Any:
        """Fetch an artifact from memory, then disk; :data:`MISS` if absent."""
        if key is None:
            return MISS
        value = ctx.cache.lookup(key)
        if value is not MISS:
            return value
        if self.persist and ctx.store is not None:
            payload = ctx.store.load(key)
            if payload is not None:
                try:
                    value = self.decode(payload)
                except (CacheCodecError, KeyError, TypeError, ValueError):
                    return MISS  # corrupt/stale entry: recompute
                ctx.cache.put(key, value)
                return value
        return MISS

    def commit(self, ctx: StageContext, key: Optional[str], value: Any) -> None:
        """Record a freshly computed artifact in both cache layers."""
        if key is None:
            return
        ctx.cache.put(key, value)
        if self.persist and ctx.store is not None:
            try:
                ctx.store.store(key, self.encode(value))
            except CacheCodecError:
                pass  # unpersistable nodes: stay memory-only

    def execute(self, ctx: StageContext, item: Any, content_digest: Optional[str]) -> Any:
        """``lookup`` -> ``run`` -> ``commit`` for one item."""
        key = self.cache_key(ctx, content_digest)
        value = self.lookup(ctx, key)
        if value is not MISS:
            return value
        value = self.run(ctx, item)
        self.commit(ctx, key, value)
        return value
