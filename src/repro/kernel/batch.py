"""Batched multi-trial cascade execution over compiled graphs.

Every Monte-Carlo consumer in the library asks the same question — "run
T independent cascades from these seeds and summarise them" — and until
this tier existed each of them paid the per-cascade dispatch cost T
times over (per-round mask setup, RNG block slicing, result
materialisation). The batch tier runs all T trials through **one**
backend call:

* the ``python`` backend runs the single cascade's own loop once per
  trial (:func:`python_batch` over
  :func:`repro.kernel.cascade._mfc_sweep` / ``_ic_sweep``) and is
  **bit-identical** to ``simulate_many`` — same per-trial RNG streams
  (``spawn_rng(trial_seeds[t], namespace)``), same final states, same
  round/flip/attempt counts;
* the ``numpy`` backend sweeps all trials as ``(T, n)`` state/frontier
  matrices with one SFC64 draw block per round sliced across trials
  (:func:`repro.kernel.backends.numpy_backend.mfc_batch`) — the
  **statistical** tier: per-trial draws differ from the reference
  stream while every per-edge success probability, and therefore every
  spread distribution, is preserved.

Results come back as a :class:`CascadeBatchSummary`: compact per-trial
arrays (infected / positive / negative / flip / round counts — no
per-event materialisation) plus an optional final-state matrix for
consumers that score states per node (the MAP detector, k-effectors,
simulation matching).

Callers derive ``trial_seeds`` exactly as ``simulate_many`` does —
``derive_seed(base_seed, model.name, trial)`` — and pass the model name
as ``namespace``, so the python tier replays the per-trial facade
stream to the bit. See ``docs/algorithms.md`` §13.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.kernel import backends as _backends
from repro.kernel.compile import CompiledGraph
from repro.obs.recorder import Recorder, resolve_recorder
from repro.types import Node, NodeState
from repro.utils.rng import spawn_rng

#: byte encoding of active node states (index 0 is the inactive byte).
_DECODE = (None, NodeState.POSITIVE, NodeState.NEGATIVE)


@dataclass
class CascadeBatchSummary:
    """Per-trial summaries of one batched cascade run.

    Attributes:
        nodes: compiled node order (``CompiledGraph.nodes`` — repr-sorted).
        index: node -> position in ``nodes``.
        seeds: the validated seed assignment shared by every trial.
        trials: number of cascades run.
        infected: per-trial final infected count (positive + negative).
        positive: per-trial count of nodes ending in state ``+1``.
        negative: per-trial count of nodes ending in state ``-1``.
        flips: per-trial flip-event count. On the batched kernel path
            this comes from kernel counters, never from event traces;
            the fallback path (non-kernel models) derives it from the
            legacy event logs.
        rounds: per-trial rounds to quiescence.
        attempts: total RNG rolls across all trials (the kernel's
            "edges touched" unit of work).
        states: optional final-state matrix — ``None`` unless the run
            asked for ``record_states=True``. Either a ``(T, n)`` uint8
            ndarray (numpy backend) or a list of ``T`` bytearrays
            (python backend); bytes use the kernel encoding ``0``
            inactive / ``1`` positive / ``2`` negative.
    """

    nodes: Tuple[Node, ...]
    index: Dict[Node, int]
    seeds: Dict[Node, NodeState]
    trials: int
    infected: List[int]
    positive: List[int]
    negative: List[int]
    flips: List[int]
    rounds: List[int]
    attempts: int
    states: Optional[object] = None

    # -- state-matrix views ---------------------------------------------

    def _require_states(self) -> object:
        if self.states is None:
            raise ValueError(
                "this batch summary has no final-state matrix; "
                "re-run with record_states=True"
            )
        return self.states

    def _encode_observed(self, observed: Dict[Node, NodeState]) -> bytearray:
        """Observed states as a kernel byte vector (0 where unobserved)."""
        encoded = bytearray(len(self.nodes))
        for node, state in observed.items():
            position = self.index.get(node)
            if position is None or not state.is_active:
                continue
            encoded[position] = 1 if int(state) > 0 else 2
        return encoded

    def active_counts(self) -> Dict[Node, int]:
        """Per node: in how many trials it ended the cascade active."""
        states = self._require_states()
        if hasattr(states, "shape"):  # (T, n) ndarray
            counts = (states != 0).sum(axis=0).tolist()
        else:
            counts = [0] * len(self.nodes)
            for row in states:
                for position, byte in enumerate(row):
                    if byte:
                        counts[position] += 1
        return dict(zip(self.nodes, counts))

    def match_counts(self, observed: Dict[Node, NodeState]) -> Dict[Node, int]:
        """Per observed node: trials it ended active *with* its observed state."""
        states = self._require_states()
        encoded = self._encode_observed(observed)
        if hasattr(states, "shape"):
            import numpy as np

            obs_vec = np.frombuffer(bytes(encoded), dtype=np.uint8)
            hits = ((states == obs_vec) & (obs_vec != 0)).sum(axis=0)
            return {node: int(hits[self.index[node]]) for node in observed}
        counts = {node: 0 for node in observed}
        probes = [
            (node, self.index[node], encoded[self.index[node]])
            for node in observed
            if node in self.index
        ]
        for row in states:
            for node, position, byte in probes:
                if byte and row[position] == byte:
                    counts[node] += 1
        return counts

    def match_totals(self, observed: Dict[Node, NodeState]) -> List[int]:
        """Per trial: how many observed nodes ended active with their state."""
        states = self._require_states()
        encoded = self._encode_observed(observed)
        if hasattr(states, "shape"):
            import numpy as np

            obs_vec = np.frombuffer(bytes(encoded), dtype=np.uint8)
            return ((states == obs_vec) & (obs_vec != 0)).sum(axis=1).tolist()
        probes = [
            (position, byte) for position, byte in enumerate(encoded) if byte
        ]
        return [
            sum(1 for position, byte in probes if row[position] == byte)
            for row in states
        ]

    def final_states(self, trial: int) -> Dict[Node, NodeState]:
        """Decode one trial's final states (node-index insertion order).

        Dict-equal to the corresponding ``simulate_many`` result's
        ``final_states`` on the bit-identical python tier.
        """
        row = self._require_states()[trial]
        if hasattr(row, "tolist"):
            row = row.tolist()
        return {
            self.nodes[position]: _DECODE[byte]
            for position, byte in enumerate(row)
            if byte
        }

    @classmethod
    def concat(cls, parts: Sequence["CascadeBatchSummary"]) -> "CascadeBatchSummary":
        """Merge chunked summaries (worker fan-out) back in trial order."""
        parts = [part for part in parts if part is not None]
        if not parts:
            raise ValueError("cannot concat an empty summary sequence")
        head = parts[0]
        if len(parts) == 1:
            return head
        states: Optional[object] = None
        if head.states is not None:
            if hasattr(head.states, "shape"):
                import numpy as np

                states = np.concatenate([part.states for part in parts], axis=0)
            else:
                states = [row for part in parts for row in part.states]
        return cls(
            nodes=head.nodes,
            index=head.index,
            seeds=head.seeds,
            trials=sum(part.trials for part in parts),
            infected=[x for part in parts for x in part.infected],
            positive=[x for part in parts for x in part.positive],
            negative=[x for part in parts for x in part.negative],
            flips=[x for part in parts for x in part.flips],
            rounds=[x for part in parts for x in part.rounds],
            attempts=sum(part.attempts for part in parts),
            states=states,
        )


# ---------------------------------------------------------------------------
# python backend batch runner (bit-identical tier)
# ---------------------------------------------------------------------------


def python_batch(
    sweep: Callable[..., Tuple[bytearray, int, list, int]],
    compiled: CompiledGraph,
    validated: Dict[Node, NodeState],
    trial_seeds: Sequence[int],
    namespace: str,
    *params: object,
    record_states: bool = False,
) -> CascadeBatchSummary:
    """Run ``sweep`` once per trial; bit-identical to ``simulate_many``.

    ``sweep`` is a model's python loop
    (:func:`repro.kernel.cascade._mfc_sweep` or ``_ic_sweep``), called as
    ``sweep(compiled, validated, spawn_rng(seed, namespace), *params)``
    — the same loop, with the same per-trial stream, as the single
    cascade ``simulate_many`` runs. Flips are counted off its event log.
    """
    infected: List[int] = []
    positive: List[int] = []
    negative: List[int] = []
    flips: List[int] = []
    rounds: List[int] = []
    rows: Optional[List[bytearray]] = [] if record_states else None
    attempts = 0
    for seed in trial_seeds:
        states, trial_rounds, log, trial_attempts = sweep(
            compiled, validated, spawn_rng(seed, namespace), *params
        )
        pos, neg = states.count(1), states.count(2)
        positive.append(pos)
        negative.append(neg)
        infected.append(pos + neg)
        flips.append(sum(1 for entry in log if entry[4]))
        rounds.append(trial_rounds)
        attempts += trial_attempts
        if rows is not None:
            rows.append(states)
    return CascadeBatchSummary(
        nodes=compiled.nodes,
        index=compiled.index,
        seeds=dict(validated),
        trials=len(infected),
        infected=infected,
        positive=positive,
        negative=negative,
        flips=flips,
        rounds=rounds,
        attempts=attempts,
        states=rows,
    )


# ---------------------------------------------------------------------------
# dispatchers
# ---------------------------------------------------------------------------


def _record_batch(
    recorder: Recorder,
    prefix: str,
    summary: CascadeBatchSummary,
    seconds: float,
    backend: str,
) -> None:
    """Fold one batch's counters into ``recorder`` (post-run, O(T))."""
    recorder.incr(f"{prefix}.calls")
    recorder.incr(f"{prefix}.backend.{backend}")
    recorder.incr(f"{prefix}.cascades", summary.trials)
    recorder.incr(f"{prefix}.rounds", sum(summary.rounds))
    recorder.incr(f"{prefix}.attempts", summary.attempts)
    recorder.incr(f"{prefix}.flips", sum(summary.flips))
    if summary.trials:
        recorder.gauge(
            f"{prefix}.infected", sum(summary.infected) / summary.trials
        )
    recorder.timing(f"{prefix}.run", seconds)


def run_mfc_batch(
    compiled: CompiledGraph,
    validated: Dict[Node, NodeState],
    trial_seeds: Sequence[int],
    alpha: float,
    allow_flips: bool,
    max_rounds: int,
    namespace: str = "mfc",
    record_states: bool = False,
    recorder: Optional[Recorder] = None,
    backend: Optional[str] = None,
) -> CascadeBatchSummary:
    """Run ``len(trial_seeds)`` MFC cascades in one backend call.

    ``trial_seeds`` are the per-trial integer seeds (the facade derives
    them as ``derive_seed(base_seed, model.name, trial)``); on the
    python backend each trial spawns ``spawn_rng(seed, namespace)``,
    which is exactly ``simulate_many``'s per-trial stream. Backend and
    recorder resolution mirror
    :func:`repro.kernel.cascade.run_mfc_compiled`; counters land under
    ``kernel.mfc.batch.*``.
    """
    rec = resolve_recorder(recorder)
    engine = _backends.resolve_backend(backend)
    if not rec.enabled:
        return engine.mfc_batch(
            compiled,
            validated,
            trial_seeds,
            namespace,
            alpha,
            allow_flips,
            max_rounds,
            record_states=record_states,
        )
    start = _time.perf_counter()
    summary = engine.mfc_batch(
        compiled,
        validated,
        trial_seeds,
        namespace,
        alpha,
        allow_flips,
        max_rounds,
        record_states=record_states,
    )
    _record_batch(
        rec, "kernel.mfc.batch", summary, _time.perf_counter() - start, engine.name
    )
    return summary


def run_ic_batch(
    compiled: CompiledGraph,
    validated: Dict[Node, NodeState],
    trial_seeds: Sequence[int],
    propagate_signs: bool,
    namespace: str = "ic",
    record_states: bool = False,
    recorder: Optional[Recorder] = None,
    backend: Optional[str] = None,
) -> CascadeBatchSummary:
    """IC twin of :func:`run_mfc_batch` (``kernel.ic.batch.*`` counters)."""
    rec = resolve_recorder(recorder)
    engine = _backends.resolve_backend(backend)
    if not rec.enabled:
        return engine.ic_batch(
            compiled,
            validated,
            trial_seeds,
            namespace,
            propagate_signs,
            record_states=record_states,
        )
    start = _time.perf_counter()
    summary = engine.ic_batch(
        compiled,
        validated,
        trial_seeds,
        namespace,
        propagate_signs,
        record_states=record_states,
    )
    _record_batch(
        rec, "kernel.ic.batch", summary, _time.perf_counter() - start, engine.name
    )
    return summary


__all__ = [
    "CascadeBatchSummary",
    "python_batch",
    "run_ic_batch",
    "run_mfc_batch",
]
