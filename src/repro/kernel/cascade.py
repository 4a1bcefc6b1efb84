"""Flat-array MFC and IC cascade fast paths.

Both functions replay the corresponding reference simulator (the
dict-of-dict MFC / IC loops kept as test oracles in
``tests/oracles/cascades.py``) instruction-for-instruction where it
matters:

* node visit order — seeds, per-round frontiers, and each node's
  successor row are walked in ascending node index, which equals the
  reference's ``repr``-sorted order by construction of
  :class:`~repro.kernel.compile.CompiledGraph`;
* the one-attempt-per-ordered-pair rule — a byte flag per CSR edge slot
  stands in for the reference's ``(u, v)`` tuple set, flipped exactly
  when the reference would have inserted the tuple (i.e. only when an
  attempt actually rolls the RNG);
* RNG consumption — ``random.random()`` is called once per attempted
  slot in the identical sequence, so given the same
  :class:`random.Random` the event log, final states and round count
  are **bit-identical** to the reference, and the caller's generator is
  left in the identical post-run state.

Node states are bytes: ``0`` inactive, ``1`` state ``+1``, ``2`` state
``-1``. The MFC update ``s(v) = s(u)·s_D(u,v)`` becomes "copy on a
positive link, swap ``1↔2`` (i.e. ``3 - s``) on a negative link".
"""

from __future__ import annotations

import random as _random
import time as _time
from typing import Dict, List, Optional, Tuple

from repro.diffusion.base import ActivationEvent, DiffusionResult
from repro.errors import InvalidSeedError
from repro.kernel.compile import CompiledGraph
from repro.obs.recorder import Recorder, resolve_recorder
from repro.types import INITIATOR_STATES, Node, NodeState

#: byte encoding of active node states (index 0 is the inactive byte).
_DECODE = (None, NodeState.POSITIVE, NodeState.NEGATIVE)


def check_seeds_compiled(
    compiled: CompiledGraph, seeds: Dict[Node, NodeState]
) -> Dict[Node, NodeState]:
    """:func:`repro.diffusion.base.check_seeds` against a compiled graph.

    Raises:
        InvalidSeedError: on empty seeds, unknown nodes, or states
            outside ``{-1, +1}``.
    """
    if not seeds:
        raise InvalidSeedError("seed assignment is empty")
    validated: Dict[Node, NodeState] = {}
    for node, state in seeds.items():
        if node not in compiled.index:
            raise InvalidSeedError(f"seed node {node!r} is not in the network")
        state = NodeState(state)
        if state not in INITIATOR_STATES:
            raise InvalidSeedError(
                f"seed state for {node!r} must be +1 or -1, got {state!r}"
            )
        validated[node] = state
    return validated


def _plant(
    compiled: CompiledGraph, validated: Dict[Node, NodeState]
) -> Tuple[bytearray, List[int], List[ActivationEvent]]:
    """Seed the state array; return it with the round-0 frontier/events."""
    states = bytearray(compiled.num_nodes)
    index = compiled.index
    seeded = sorted(
        (index[node], 1 if int(state) > 0 else 2) for node, state in validated.items()
    )
    nodes = compiled.nodes
    events = []
    frontier = []
    for i, s in seeded:
        states[i] = s
        frontier.append(i)
        events.append(
            ActivationEvent(round=0, source=None, target=nodes[i], state=_DECODE[s])
        )
    return states, frontier, events


def _materialise(
    compiled: CompiledGraph,
    validated: Dict[Node, NodeState],
    events: List[ActivationEvent],
    log: List[Tuple[int, int, int, int, bool]],
    rounds: int,
) -> DiffusionResult:
    """Decode the int event log into the reference result structure.

    ``final_states`` is built seed-first then in first-activation order,
    reproducing the reference's dict insertion order exactly (flips
    re-assign and therefore keep the original position, as in a plain
    dict update).
    """
    nodes = compiled.nodes
    decode = _DECODE
    event = ActivationEvent
    append = events.append
    final_states = dict(validated)
    for round_index, u, v, s, was_flip in log:
        state = decode[s]
        target = nodes[v]
        final_states[target] = state
        append(event(round_index, nodes[u], target, state, was_flip))
    return DiffusionResult(
        seeds=validated, final_states=final_states, events=events, rounds=rounds
    )


def _finalise(
    compiled: CompiledGraph,
    validated: Dict[Node, NodeState],
    states: bytearray,
    rounds: int,
) -> DiffusionResult:
    """Trace-free result: final states scanned straight off the state array.

    Used when the caller disabled event recording
    (``record_events=False``). ``final_states`` compares equal to the
    recorded run's dict (dict equality ignores insertion order, which
    here is node-index order rather than the reference's activation
    order); ``events`` is empty by contract.
    """
    nodes = compiled.nodes
    decode = _DECODE
    final_states = {}
    for i, s in enumerate(states):
        if s:
            final_states[nodes[i]] = decode[s]
    return DiffusionResult(
        seeds=validated, final_states=final_states, events=[], rounds=rounds
    )


def _mfc_cascade(
    compiled: CompiledGraph,
    validated: Dict[Node, NodeState],
    random: _random.Random,
    alpha: float,
    allow_flips: bool,
    max_rounds: int,
    record_events: bool = True,
) -> Tuple[DiffusionResult, bytearray]:
    """The bare MFC loop, exactly the pre-observability kernel fast path.

    Returns the result plus the per-slot attempt flags so the wrapper
    can derive attempt counters without any in-loop bookkeeping.
    ``benchmarks/bench_obs_overhead.py`` times this function directly as
    the uninstrumented baseline — keep it free of recorder calls.
    """
    indptr, targets, _ = compiled.hot_rows()
    signs = compiled.signs
    probs = compiled.probabilities_list(alpha)
    rand = random.random

    states, frontier, events = _plant(compiled, validated)
    tried = bytearray(compiled.num_edges)
    queued = bytearray(compiled.num_nodes)
    log: List[Tuple[int, int, int, int, bool]] = []
    rounds = 0

    while frontier and rounds < max_rounds:
        rounds += 1
        fresh: List[int] = []
        for u in frontier:
            s_u = states[u]
            if s_u == 0:
                # Mirrors the reference's defensive guard; states on the
                # frontier are always active in practice.
                continue
            for slot in range(indptr[u], indptr[u + 1]):
                if tried[slot]:
                    continue
                v = targets[slot]
                s_v = states[v]
                if s_v == 0:
                    was_flip = False
                elif allow_flips and signs[slot] and s_u != s_v:
                    was_flip = True
                else:
                    continue
                tried[slot] = 1
                if rand() < probs[slot]:
                    s_new = s_u if signs[slot] else 3 - s_u
                    states[v] = s_new
                    log.append((rounds, u, v, s_new, was_flip))
                    if not queued[v]:
                        queued[v] = 1
                        fresh.append(v)
        for v in fresh:
            queued[v] = 0
        fresh.sort()
        frontier = fresh

    if not record_events:
        return _finalise(compiled, validated, states, rounds), tried
    return _materialise(compiled, validated, events, log, rounds), tried


def _mfc_cascade_summary(
    compiled: CompiledGraph,
    validated: Dict[Node, NodeState],
    random: _random.Random,
    alpha: float,
    allow_flips: bool,
    max_rounds: int,
) -> Tuple[bytearray, int, int, int]:
    """:func:`_mfc_cascade` with counters instead of an event log.

    Identical control flow and **identical RNG consumption** — the only
    difference is that successes bump scalar counters rather than append
    to the log, so the per-trial summaries of the batched tier
    (:mod:`repro.kernel.batch`) stay bit-identical to what a recorded
    run would report. Returns ``(states, rounds, attempts, flips)``.
    """
    indptr, targets, _ = compiled.hot_rows()
    signs = compiled.signs
    probs = compiled.probabilities_list(alpha)
    rand = random.random

    states, frontier, _ = _plant(compiled, validated)
    tried = bytearray(compiled.num_edges)
    queued = bytearray(compiled.num_nodes)
    rounds = 0
    attempts = 0
    flips = 0

    while frontier and rounds < max_rounds:
        rounds += 1
        fresh: List[int] = []
        for u in frontier:
            s_u = states[u]
            if s_u == 0:
                continue
            for slot in range(indptr[u], indptr[u + 1]):
                if tried[slot]:
                    continue
                v = targets[slot]
                s_v = states[v]
                if s_v == 0:
                    was_flip = False
                elif allow_flips and signs[slot] and s_u != s_v:
                    was_flip = True
                else:
                    continue
                tried[slot] = 1
                attempts += 1
                if rand() < probs[slot]:
                    states[v] = s_u if signs[slot] else 3 - s_u
                    if was_flip:
                        flips += 1
                    if not queued[v]:
                        queued[v] = 1
                        fresh.append(v)
        for v in fresh:
            queued[v] = 0
        fresh.sort()
        frontier = fresh

    return states, rounds, attempts, flips


def _ic_cascade_summary(
    compiled: CompiledGraph,
    validated: Dict[Node, NodeState],
    random: _random.Random,
    propagate_signs: bool,
) -> Tuple[bytearray, int, int, int]:
    """Counter-only twin of :func:`_ic_cascade` (same RNG stream).

    Returns ``(states, rounds, attempts, flips)``; IC has no flips, so
    the last counter is always zero (kept for a uniform batch shape).
    """
    indptr, targets, weights = compiled.hot_rows()
    signs = compiled.signs
    rand = random.random

    states, frontier, _ = _plant(compiled, validated)
    tried = bytearray(compiled.num_edges)
    rounds = 0
    attempts = 0

    while frontier:
        rounds += 1
        fresh: List[int] = []
        for u in frontier:
            s_u = states[u]
            for slot in range(indptr[u], indptr[u + 1]):
                if tried[slot]:
                    continue
                v = targets[slot]
                if states[v]:
                    continue  # IC never re-activates (and keeps the slot unspent)
                tried[slot] = 1
                attempts += 1
                if rand() < weights[slot]:
                    if propagate_signs and not signs[slot]:
                        states[v] = 3 - s_u
                    else:
                        states[v] = s_u
                    fresh.append(v)
        fresh.sort()
        frontier = fresh

    return states, rounds, attempts, 0


def _record_cascade(
    recorder: Recorder,
    prefix: str,
    result: DiffusionResult,
    tried,
    seconds: float,
    backend: str = "python",
) -> None:
    """Fold one cascade's counters into ``recorder`` (post-run, O(m)).

    ``tried`` is either the python backend's per-slot attempt flags or a
    backend's pre-summed attempt count. Trace-free results
    (``record_events=False``) carry no events, so the trace-derived
    ``activations``/``flips`` counters are skipped rather than reported
    as zero.
    """
    recorder.incr(f"{prefix}.cascades")
    recorder.incr(f"{prefix}.backend.{backend}")
    recorder.incr(f"{prefix}.rounds", result.rounds)
    # Every tried slot is one RNG roll on one distinct (u, v) edge — the
    # kernel's unit of work ("edges touched").
    recorder.incr(f"{prefix}.attempts", tried if isinstance(tried, int) else sum(tried))
    if result.events:
        flips = sum(1 for event in result.events if event.was_flip)
        activations = len(result.events) - len(result.seeds) - flips
        recorder.incr(f"{prefix}.activations", activations)
        recorder.incr(f"{prefix}.flips", flips)
    recorder.gauge(f"{prefix}.infected", float(len(result.final_states)))
    recorder.timing(f"{prefix}.cascade", seconds)


def run_mfc_compiled(
    compiled: CompiledGraph,
    validated: Dict[Node, NodeState],
    random: _random.Random,
    alpha: float,
    allow_flips: bool,
    max_rounds: int,
    recorder: Optional[Recorder] = None,
    backend: Optional[str] = None,
    record_events: bool = True,
) -> DiffusionResult:
    """MFC (paper Algorithm 1) over the CSR arrays.

    ``validated`` must already have passed seed validation (the model
    wrappers call :func:`check_seeds_compiled` or the reference
    ``check_seeds`` first, preserving the reference's validate-then-
    spawn-RNG order).

    ``backend`` picks the execution backend (see
    :mod:`repro.kernel.backends`); ``None`` defers to the
    ``REPRO_KERNEL_BACKEND`` env default, which is the bit-identical
    interpreted path.

    ``record_events=False`` returns a trace-free result: ``events`` is
    empty and ``final_states`` is scanned off the state array (equal as
    a dict to the recorded run's, in node-index rather than activation
    order). Monte-Carlo spread estimation reads only ``final_states``,
    and on large graphs event materialisation is a fixed per-cascade
    cost both backends share — skipping it is the cheap path for
    estimate-only workloads.

    With an enabled ``recorder`` (explicit or ambient via
    :func:`repro.obs.using_recorder`), per-cascade counters
    (``kernel.mfc.rounds/attempts/activations/flips`` plus a
    ``kernel.mfc.backend.<name>`` marker) and a ``kernel.mfc.cascade``
    timer are recorded; the default
    :class:`~repro.obs.recorder.NullRecorder` costs one branch per
    cascade and nothing inside the hot loop.
    """
    rec = resolve_recorder(recorder)
    engine = _backends.resolve_backend(backend)
    if not rec.enabled:
        return engine.mfc_cascade(
            compiled,
            validated,
            random,
            alpha,
            allow_flips,
            max_rounds,
            record_events=record_events,
        )[0]
    start = _time.perf_counter()
    result, tried = engine.mfc_cascade(
        compiled,
        validated,
        random,
        alpha,
        allow_flips,
        max_rounds,
        record_events=record_events,
    )
    _record_cascade(
        rec, "kernel.mfc", result, tried, _time.perf_counter() - start, engine.name
    )
    return result


def _ic_cascade(
    compiled: CompiledGraph,
    validated: Dict[Node, NodeState],
    random: _random.Random,
    propagate_signs: bool,
    record_events: bool = True,
) -> Tuple[DiffusionResult, bytearray]:
    """The bare IC loop (uninstrumented twin of :func:`_mfc_cascade`)."""
    indptr, targets, weights = compiled.hot_rows()
    signs = compiled.signs
    rand = random.random

    states, frontier, events = _plant(compiled, validated)
    tried = bytearray(compiled.num_edges)
    log: List[Tuple[int, int, int, int, bool]] = []
    rounds = 0

    while frontier:
        rounds += 1
        fresh: List[int] = []
        for u in frontier:
            s_u = states[u]
            for slot in range(indptr[u], indptr[u + 1]):
                if tried[slot]:
                    continue
                v = targets[slot]
                if states[v]:
                    continue  # IC never re-activates (and keeps the slot unspent)
                tried[slot] = 1
                if rand() < weights[slot]:
                    if propagate_signs and not signs[slot]:
                        s_new = 3 - s_u
                    else:
                        s_new = s_u
                    states[v] = s_new
                    log.append((rounds, u, v, s_new, False))
                    fresh.append(v)
        fresh.sort()
        frontier = fresh

    if not record_events:
        return _finalise(compiled, validated, states, rounds), tried
    return _materialise(compiled, validated, events, log, rounds), tried


def run_ic_compiled(
    compiled: CompiledGraph,
    validated: Dict[Node, NodeState],
    random: _random.Random,
    propagate_signs: bool,
    recorder: Optional[Recorder] = None,
    backend: Optional[str] = None,
    record_events: bool = True,
) -> DiffusionResult:
    """Independent Cascade over the CSR arrays (sign-blind probabilities).

    Observability, backend selection and the ``record_events`` toggle
    mirror :func:`run_mfc_compiled`, under the ``kernel.ic.*`` names
    (IC has no flips, so ``kernel.ic.flips`` stays zero).
    """
    rec = resolve_recorder(recorder)
    engine = _backends.resolve_backend(backend)
    if not rec.enabled:
        return engine.ic_cascade(
            compiled, validated, random, propagate_signs, record_events=record_events
        )[0]
    start = _time.perf_counter()
    result, tried = engine.ic_cascade(
        compiled, validated, random, propagate_signs, record_events=record_events
    )
    _record_cascade(
        rec, "kernel.ic", result, tried, _time.perf_counter() - start, engine.name
    )
    return result


# Imported last: repro.kernel.backends itself imports nothing from this
# module at import time (the python backend binds _mfc_cascade/_ic_cascade
# lazily in its constructor), but keeping the import at the bottom makes
# the no-cycle property explicit.
from repro.kernel import backends as _backends  # noqa: E402
