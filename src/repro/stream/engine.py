"""Incremental re-detection over a stream of snapshot deltas.

The cold pipeline recomputes everything from the snapshot:

    Prune -> ComponentSplit -> [per component] Arborescence
          -> [per tree] Binarize+TreeDP -> Selection

:class:`StreamingDetectionEngine` exploits that the expensive middle is
*per component* and content-addressed. It holds the live network plus an
incrementally maintained partition of the **active** nodes into infected
components (connected via *live* edges — both endpoints active and, when
the config prunes, sign-consistent, exactly the edges the cold Prune
stage keeps). Applying a :class:`~repro.stream.delta.SnapshotDelta`:

1. maps the touched nodes to their current components (the *dirty* set);
2. re-runs a frontier-scoped BFS from the touched nodes and the dirty
   components' members only — untouched components are never scanned;
   components merged into by a new/resurrected live edge are absorbed on
   contact (an untouched component is internally live-connected, so one
   visited member implies the BFS covers all of it);
3. rebuilds subgraphs for the re-discovered pieces; every untouched
   component keeps its *same unmutated* ``SignedDiGraph`` object.

Detection then goes through
:meth:`RID.detect_components <repro.core.rid.RID.detect_components>`:
untouched components resolve to memoized content digests (O(1) — the
object's ``version`` counter is unchanged) and therefore to
``ArtifactCache`` hits, so Arborescence/Binarize/TreeDP re-run only for
dirty components and only the final Selection merge is global.

**Identity guarantee.** After every applied delta, :meth:`detect`
gives the same answer as a cold run of the same ``RID`` on
:meth:`materialise`'s snapshot — the same initiators and states, and an
objective equal up to float rounding. The partition equals the cold
Prune+ComponentSplit output (same member sets, same live edges, same
smallest-member ordering), and reused artifacts are keyed by full
content digests, so a hit can only return what the cold stage would
recompute on the same component graph. Node insertion order does differ
from the cold snapshot's, and ``maximum_spanning_branching`` breaks
weight ties by insertion order, so when co-optimal branchings exist the
two runs can pick different cascade trees (``benchmarks/e2e/README.md``
§ Findings): initiators and states still agree, but the objective's
float sum is reordered. Without such ties the result is bit-identical
(``tests/integration/test_stream_identity.py``). Two deliberate divergences:
the ``rid.pruned_links`` counter is not emitted (the streaming layer
never materialises pruned-away edges), and an *emptied* infection
yields a well-formed empty result where the cold entry point raises
:class:`~repro.errors.EmptyInfectionError` — a stream that drains to
zero is a normal state, not a caller bug.
"""

from __future__ import annotations

import time
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Union, overload

from repro.detectors.base import DetectionResult, Detector
from repro.detectors.registry import resolve_detector
from repro.core.rid import RID
from repro.graphs.signed_digraph import EdgeData, SignedDiGraph
from repro.obs.recorder import Recorder, resolve_recorder, using_recorder
from repro.runtime.config import RuntimeConfig
from repro.stream.delta import SnapshotDelta, apply_delta
from repro.types import Node


@dataclass
class DeltaReport:
    """What one applied delta did to the component partition."""

    delta_index: int
    touched_nodes: int
    invalidated_components: int
    recomputed_components: int
    total_components: int


@dataclass
class StreamStep:
    """One replay step: the partition update plus the re-detection."""

    report: DeltaReport
    result: DetectionResult
    reused_artifacts: int
    computed_artifacts: int


class StreamReplay(Sequence):
    """Outcome of :meth:`StreamingDetectionEngine.replay`.

    Sequence-compatible over the :class:`StreamStep` list — replays
    still index, slice, iterate, and ``len()`` like the bare list the
    method used to return — but the blessed accessors are named:

    * :attr:`steps` — the underlying ``List[StreamStep]``, in order;
    * :attr:`final` — the last step's :class:`DetectionResult` (what
      ``steps[-1].result`` used to spell), ``None`` for empty replays;
    * :attr:`latencies` — per-step wall-clock seconds (apply + detect),
      aligned with :attr:`steps`.

    Positional list assumptions (``replay == [...]``, ``list`` identity
    checks) are deprecated in favour of ``.steps``.
    """

    __slots__ = ("steps", "latencies")

    def __init__(
        self, steps: List[StreamStep], latencies: Optional[List[float]] = None
    ) -> None:
        self.steps = steps
        self.latencies = latencies if latencies is not None else [0.0] * len(steps)
        if len(self.latencies) != len(steps):
            raise ValueError(
                f"latencies ({len(self.latencies)}) must align with steps "
                f"({len(steps)})"
            )

    @property
    def final(self) -> Optional[DetectionResult]:
        """The last step's detection result (``None`` when no deltas ran)."""
        return self.steps[-1].result if self.steps else None

    def __len__(self) -> int:
        return len(self.steps)

    @overload
    def __getitem__(self, index: int) -> StreamStep: ...

    @overload
    def __getitem__(self, index: slice) -> List[StreamStep]: ...

    def __getitem__(self, index: Union[int, slice]):
        return self.steps[index]

    def __repr__(self) -> str:
        return (
            f"StreamReplay(steps={len(self.steps)}, "
            f"final={None if self.final is None else self.final.method!r})"
        )


class StreamingDetectionEngine:
    """Maintains infected components across deltas; re-detects O(changed).

    Args:
        graph: the initial live network (any nodes/states; only active
            nodes participate in detection). Copied by default so event
            replay never mutates the caller's object.
        detector: what re-detects after each delta — a registry name or
            a pre-built :class:`~repro.detectors.Detector`; ``None``
            means ``RID()``. A :class:`~repro.core.rid.RID` instance
            takes the incremental path: it detects through
            :meth:`~repro.core.rid.RID.detect_components` with its own
            config and artifact cache. Any other detector re-detects on
            the materialised snapshot each step (no per-component
            artifact reuse — it has no content-addressed stages) but
            shares the same delta plumbing and replay reporting.
        runtime: default execution configuration for :meth:`detect`.
        copy: set False to adopt (and mutate) ``graph`` in place.

    :attr:`detector` is the resolved detector on both paths.

    Example:
        >>> eng = StreamingDetectionEngine(infected)        # doctest: +SKIP
        >>> step = eng.step(delta)                          # doctest: +SKIP
        >>> step.result.initiators                          # doctest: +SKIP
    """

    def __init__(
        self,
        graph: Optional[SignedDiGraph] = None,
        *,
        detector: Union[str, Detector, None] = None,
        runtime: Optional[RuntimeConfig] = None,
        copy: bool = True,
    ) -> None:
        self.detector: Detector = (
            RID() if detector is None else resolve_detector(detector)
        )
        self.runtime = runtime
        if graph is None:
            self.graph = SignedDiGraph(name="stream")
        else:
            self.graph = graph.copy() if copy else graph
        # Only RID streams incrementally: its cached steps reuse
        # per-component artifacts across deltas. Named detectors consume
        # the unpruned materialised snapshot, so the live-edge predicate
        # must not drop sign-inconsistent links for them.
        self._prune = (
            isinstance(self.detector, RID) and self.detector.config.prune_inconsistent
        )
        self._comp_nodes: Dict[int, Set[Node]] = {}
        self._comp_sub: Dict[int, SignedDiGraph] = {}
        self._comp_key: Dict[int, str] = {}
        self._comp_of: Dict[Node, int] = {}
        self._next_id = 0
        self._delta_count = 0
        self.last_reused_artifacts = 0
        self.last_computed_artifacts = 0
        self._rebuild_partition()

    # ------------------------------------------------------------------
    # Live-edge predicate and partition maintenance
    # ------------------------------------------------------------------

    def _edge_live(self, u: Node, v: Node, data: EdgeData) -> bool:
        """True when the cold pipeline's pruned infected network keeps
        this edge: both endpoints active, and (when pruning) the sign
        consistency of Definition 5 holds."""
        s_u = self.graph.state(u)
        s_v = self.graph.state(v)
        if not (s_u.is_active and s_v.is_active):
            return False
        if not self._prune:
            return True
        return int(s_u) * int(data.sign) == int(s_v)

    def _live_neighbors(self, node: Node) -> Iterable[Node]:
        for u, v, data in self.graph.out_edges(node):
            if self._edge_live(u, v, data):
                yield v
        for u, v, data in self.graph.in_edges(node):
            if self._edge_live(u, v, data):
                yield u

    def _bfs_component(self, start: Node, visited: Set[Node]) -> Set[Node]:
        component: Set[Node] = {start}
        visited.add(start)
        queue = deque([start])
        while queue:
            node = queue.popleft()
            for neighbor in self._live_neighbors(node):
                if neighbor not in visited:
                    visited.add(neighbor)
                    component.add(neighbor)
                    queue.append(neighbor)
        return component

    def _build_subgraph(self, nodes: Set[Node]) -> SignedDiGraph:
        """Materialise one component: its active nodes plus live edges.

        Nodes are inserted repr-sorted — the library's canonical order,
        matching the on-disk graph codec; the digest is order-free
        either way."""
        ordered = sorted(nodes, key=repr)
        sub = SignedDiGraph()
        for node in ordered:
            sub.add_node(node, self.graph.state(node))
        for node in ordered:
            for u, v, data in self.graph.out_edges(node):
                if v in nodes and self._edge_live(u, v, data):
                    sub.add_edge(u, v, int(data.sign), data.weight)
        return sub

    def _register(self, nodes: Set[Node]) -> int:
        cid = self._next_id
        self._next_id += 1
        self._comp_nodes[cid] = nodes
        self._comp_sub[cid] = self._build_subgraph(nodes)
        self._comp_key[cid] = min(repr(n) for n in nodes)
        for node in nodes:
            self._comp_of[node] = cid
        return cid

    def _rebuild_partition(self) -> int:
        """Full BFS sweep (init / resync); returns the component count."""
        self._comp_nodes.clear()
        self._comp_sub.clear()
        self._comp_key.clear()
        self._comp_of.clear()
        visited: Set[Node] = set()
        for start in sorted(self.graph.nodes(), key=repr):
            if start in visited or not self.graph.state(start).is_active:
                continue
            self._register(self._bfs_component(start, visited))
        return len(self._comp_nodes)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def components(self) -> List[SignedDiGraph]:
        """Current component subgraphs, in the cold pipeline's order
        (ascending smallest member under repr)."""
        return [
            self._comp_sub[cid]
            for cid in sorted(self._comp_nodes, key=self._comp_key.__getitem__)
        ]

    def component_count(self) -> int:
        """Number of infected components right now."""
        return len(self._comp_nodes)

    def materialise(self) -> SignedDiGraph:
        """The infected snapshot a cold run would start from: the induced
        subgraph of the live network over its active nodes."""
        active = [n for n in self.graph.nodes() if self.graph.state(n).is_active]
        return self.graph.subgraph(active, name="stream-materialised")

    # ------------------------------------------------------------------
    # Delta application
    # ------------------------------------------------------------------

    def apply(
        self, delta: SnapshotDelta, recorder: Optional[Recorder] = None
    ) -> DeltaReport:
        """Apply ``delta`` to the live network and repair the partition.

        Cost is proportional to the touched components, not the network:
        re-BFS starts only from touched nodes and the members of their
        (now dirty) components, absorbing untouched components on
        contact when a new live edge merges into them.
        """
        rec = resolve_recorder(recorder)
        index = self._delta_count
        self._delta_count += 1
        with rec.span("stream.apply", delta=index):
            touched = apply_delta(self.graph, delta)
            # Old components of every touched node (the dirty set). The
            # partition maps are still pre-delta here, so removed nodes
            # resolve to the component they are leaving.
            dirty: Set[int] = set()
            for node in touched:
                cid = self._comp_of.get(node)
                if cid is not None:
                    dirty.add(cid)
            starts: Set[Node] = set()
            for cid in dirty:
                starts.update(self._comp_nodes[cid])
            starts.update(touched)
            visited: Set[Node] = set()
            pieces: List[Set[Node]] = []
            for start in sorted(starts, key=repr):
                if start in visited or not self.graph.has_node(start):
                    continue
                if not self.graph.state(start).is_active:
                    continue
                pieces.append(self._bfs_component(start, visited))
            # Absorb-on-contact: a BFS that reached into an untouched
            # component (via a new/resurrected live edge) covered all of
            # it, so that component dissolves into the new piece.
            absorbed: Set[int] = set(dirty)
            for node in visited:
                cid = self._comp_of.get(node)
                if cid is not None:
                    absorbed.add(cid)
            # Pop absorbed components *before* registering pieces: a
            # node keeps its fresh assignment even when an absorbed
            # component also claimed it.
            for cid in absorbed:
                for node in self._comp_nodes.pop(cid):
                    if self._comp_of.get(node) == cid:
                        del self._comp_of[node]
                del self._comp_sub[cid]
                del self._comp_key[cid]
            for piece in pieces:
                self._register(piece)
        if rec.enabled:
            rec.incr("stream.deltas")
            rec.incr("stream.delta.nodes", len(touched))
            rec.incr("stream.dirty_components", len(absorbed))
            rec.gauge("stream.components", len(self._comp_nodes))
        return DeltaReport(
            delta_index=index,
            touched_nodes=len(touched),
            invalidated_components=len(absorbed),
            recomputed_components=len(pieces),
            total_components=len(self._comp_nodes),
        )

    # ------------------------------------------------------------------
    # Detection
    # ------------------------------------------------------------------

    def detect(
        self,
        *,
        budget: Optional[int] = None,
        label: Optional[str] = None,
        recorder: Optional[Recorder] = None,
        runtime: Optional[RuntimeConfig] = None,
    ) -> DetectionResult:
        """Re-detect over the current partition, reusing cached artifacts.

        Gives the same initiators and states as a cold run on
        :meth:`materialise`, with the objective equal up to float
        rounding; cascade trees can differ when co-optimal forests tie
        (see the module docstring). ``stream.reused_artifacts``
        and ``stream.computed_artifacts`` count the artifact-cache hits
        and misses this call produced — on a small delta the reuse count
        dominates because untouched components' Arborescence and TreeDP
        outputs come back verbatim.
        """
        rec = resolve_recorder(recorder)
        if not isinstance(self.detector, RID):
            return self._detect_named(
                budget=budget, recorder=rec, runtime=runtime
            )
        cache = self.detector.cache
        hits_before, misses_before = cache.hits, cache.misses
        with using_recorder(rec):
            with rec.span("stream.detect", components=len(self._comp_nodes)):
                result = self.detector.detect_components(
                    self.components(),
                    budget=budget,
                    label=label,
                    recorder=rec,
                    runtime=runtime if runtime is not None else self.runtime,
                )
        reused = cache.hits - hits_before
        computed = cache.misses - misses_before
        if rec.enabled:
            rec.incr("stream.reused_artifacts", reused)
            rec.incr("stream.computed_artifacts", computed)
        self.last_reused_artifacts = reused
        self.last_computed_artifacts = computed
        return result

    def _detect_named(
        self,
        *,
        budget: Optional[int],
        recorder: Recorder,
        runtime: Optional[RuntimeConfig],
    ) -> DetectionResult:
        """Per-step detection with a named (non-RID) detector.

        Re-detects on the materialised snapshot — named detectors have
        no content-addressed stages to reuse, so the artifact counters
        stay zero. A drained (empty) stream mirrors the RID path: an
        open-ended detect yields a well-formed empty result, a budgeted
        one goes through the detector's budget-0 contract.
        """
        detector = self.detector
        runtime = runtime if runtime is not None else self.runtime
        with using_recorder(recorder):
            with recorder.span(
                "stream.detect",
                components=len(self._comp_nodes),
                detector=detector.name,
            ):
                snapshot = self.materialise()
                if budget is not None:
                    result = detector.detect_with_budget(
                        snapshot, budget, recorder=recorder, runtime=runtime
                    )
                elif snapshot.number_of_nodes() == 0:
                    result = DetectionResult(
                        method=detector.name, initiators=set()
                    )
                else:
                    result = detector.detect(
                        snapshot, recorder=recorder, runtime=runtime
                    )
        self.last_reused_artifacts = 0
        self.last_computed_artifacts = 0
        return result

    def step(
        self,
        delta: SnapshotDelta,
        *,
        budget: Optional[int] = None,
        recorder: Optional[Recorder] = None,
        runtime: Optional[RuntimeConfig] = None,
    ) -> StreamStep:
        """Apply one delta, then re-detect: the streaming unit of work."""
        rec = resolve_recorder(recorder)
        report = self.apply(delta, recorder=rec)
        result = self.detect(budget=budget, recorder=rec, runtime=runtime)
        return StreamStep(
            report=report,
            result=result,
            reused_artifacts=self.last_reused_artifacts,
            computed_artifacts=self.last_computed_artifacts,
        )

    def replay(
        self,
        deltas: Iterable[SnapshotDelta],
        *,
        budget: Optional[int] = None,
        recorder: Optional[Recorder] = None,
        runtime: Optional[RuntimeConfig] = None,
    ) -> StreamReplay:
        """Run :meth:`step` for every delta, in order.

        Returns a :class:`StreamReplay`: sequence-compatible with the
        bare step list this method used to return, plus ``.final`` and
        per-step ``.latencies``.
        """
        steps: List[StreamStep] = []
        latencies: List[float] = []
        for delta in deltas:
            start = time.perf_counter()
            steps.append(
                self.step(delta, budget=budget, recorder=recorder, runtime=runtime)
            )
            latencies.append(time.perf_counter() - start)
        return StreamReplay(steps, latencies)
