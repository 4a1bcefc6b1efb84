"""Vectorized (numpy) execution of the compiled kernels.

Importing this module requires numpy; :mod:`repro.kernel.backends` only
does so after a successful feature probe. A single cascade
(:func:`mfc_cascade`, :func:`ic_cascade`) returns the full event trace
and its attempt count; Monte-Carlo work that needs only counts or final
states runs all trials at once through :func:`mfc_batch` /
:func:`ic_batch`.

Cascades — frontier-batched rounds (statistical-identity tier)
--------------------------------------------------------------

Per round, the candidate attempts of the whole frontier are processed
as one array program: gather every untried CSR slot out of the frontier
rows, filter by round-start eligibility, draw one vectorized Bernoulli
batch against the per-α attempt-probability cache, then resolve
conflicts per target. Conflict resolution reproduces the reference's
sequential semantics *in distribution*: candidates for a target are
ordered exactly as the reference visits them (ascending source, then
ascending slot), attempts are only charged up to and including the
first success — slots after a success stay untried, as they would had
the reference stopped attempting an already-activated node — and the
first success wins the activation. Under ``p = 1`` and ``p = 0`` this
makes reachable sets, frontiers, round counts and attempt counts
*exactly* equal to the interpreted backend (property-gated by
``tests/property/test_backend_identity.py``); for ``0 < p < 1`` the RNG
is consumed in a different order (one batch per round, over-drawing for
candidates that lose their conflict group), so individual cascades
diverge draw-for-draw while every per-edge success probability — and
therefore the distribution of spread estimates — is unchanged.

One documented divergence: the reference lets *mid-round* state changes
re-qualify later attempts (a node freshly activated by a low-index
source can be flip-targeted by a higher-index source in the same MFC
round, and a flipped source propagates its new state within the round).
The batched rounds evaluate eligibility and source states against the
round *start*, deferring such chains to the next round. Reachability is
unaffected (flips never un-infect), and the flip-rate shift is part of
the statistical tier's tolerance gate.

The RNG contract: the caller's :class:`random.Random` seeds a
``numpy.random.Generator`` (one ``getrandbits`` draw per cascade), so
runs remain deterministic given the seed — just under a different
stream than the reference.
"""

from __future__ import annotations

import random as _random
from typing import Dict, List, Tuple

import numpy as np

from repro.diffusion.base import ActivationEvent, DiffusionResult
from repro.kernel.cascade import _DECODE
from repro.kernel.compile import CompiledGraph
from repro.types import Node, NodeState


# ---------------------------------------------------------------------------
# Compiled-graph array views
# ---------------------------------------------------------------------------


def _ensure_arrays(compiled: CompiledGraph) -> dict:
    """ndarray views of the CSR arrays, cached on the compiled graph.

    Derived data, like ``CompiledGraph.hot_rows``: excluded from
    pickling and rebuilt on first use in each process. The ``scratch``
    entry holds the reusable per-round work buffers — freshly mmapped
    pages cost a page fault per first touch, so re-mallocing half a
    dozen slot-sized temporaries every round is real time; the pool
    amortises that across rounds *and* cascades (peak footprint is a
    few machine words per edge, the same order as one round's
    temporaries under the malloc-per-round scheme).
    """
    cache = compiled._np
    if cache is None:
        # int32 slot/node indices halve the bytes every hot gather moves
        # (the slot-index gathers dominate the cascade loop); int64 only
        # when the edge count actually needs it.
        itype = np.int64 if compiled.num_edges >= _I32_MAX else np.int32
        # Node ids get their own dtype: uint16 when every id + 1 fits
        # (the frontier is bumped by one to index ``indptr`` row ends),
        # quartering the bytes of the target gathers on typical graphs.
        ttype = np.uint16 if compiled.num_nodes <= 0xFFFF else itype
        cache = {
            "itype": itype,
            "ttype": ttype,
            "indptr": np.asarray(compiled.indptr, dtype=itype),
            "targets": np.asarray(compiled.targets, dtype=ttype),
            "signs": np.frombuffer(bytes(compiled.signs), dtype=np.uint8) != 0,
            # f32 for the same reason as the MFC probability cache: the
            # IC loop gathers this per candidate slot every round.
            "weights": np.asarray(compiled.weights, dtype=np.float32),
            "probs": {},
            "scratch": {},
        }
        compiled._np = cache
    return cache


def _scratch(cache: dict, name: str, size: int, dtype) -> np.ndarray:
    """A length-``size`` view of the named reusable work buffer.

    Reallocates on a dtype change as well as on growth: the batched tier
    runs its conflict resolution over int64 flattened keys while the
    single-cascade path may use int32 positions on the same graph, and a
    stale-dtype buffer would make ``out=`` kernels miscast.
    """
    pool = cache.setdefault("scratch", {})
    buf = pool.get(name)
    dtype = np.dtype(dtype)
    if buf is None or buf.size < size or buf.dtype != dtype:
        buf = np.empty(max(size, 1024), dtype)
        pool[name] = buf
    return buf[:size]


_IOTAS: Dict[object, np.ndarray] = {}

#: Largest ``int32``; doubles as the "no success" sentinel for int32
#: graphs (any value above every candidate position works).
_I32_MAX = np.iinfo(np.int32).max


def _iota(n: int, dtype=np.int64) -> np.ndarray:
    """A read-only ``arange(n)`` slice off one growing buffer per dtype."""
    key = np.dtype(dtype)
    buf = _IOTAS.get(key)
    if buf is None or buf.size < n:
        buf = np.arange(max(n, 0 if buf is None else 2 * buf.size, 1024), dtype=key)
        _IOTAS[key] = buf
    return buf[:n]


def _probabilities(compiled: CompiledGraph, alpha: float) -> np.ndarray:
    """Per-α MFC attempt probabilities as a ``float32`` gather array.

    Single precision halves the hot loop's largest gather and its draw
    traffic. The boundary regimes stay exact (0.0 and 1.0 are f32
    representable, so the ``p = 0`` / ``p = 1`` identity gates are
    unaffected); interior probabilities round at ~1e-7 relative — far
    inside the statistical tier's distributional tolerance.
    """
    cache = _ensure_arrays(compiled)
    key = float(alpha)
    probs = cache["probs"].get(key)
    if probs is None:
        probs = np.asarray(compiled.probabilities(key), dtype=np.float32)
        cache["probs"][key] = probs
    return probs


def _plant(
    compiled: CompiledGraph, validated: Dict[Node, NodeState]
) -> Tuple[np.ndarray, np.ndarray, List[ActivationEvent]]:
    """Seed the state array; return it with the round-0 frontier/events."""
    states = np.zeros(compiled.num_nodes, dtype=np.uint8)
    index = compiled.index
    seeded = sorted(
        (index[node], 1 if int(state) > 0 else 2) for node, state in validated.items()
    )
    nodes = compiled.nodes
    events = []
    for i, s in seeded:
        states[i] = s
        events.append(
            ActivationEvent(round=0, source=None, target=nodes[i], state=_DECODE[s])
        )
    frontier = np.fromiter((i for i, _ in seeded), dtype=np.int64, count=len(seeded))
    return states, frontier, events


def _run_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated ``range(start, start + count)`` runs, in run order.

    With ``starts`` being the CSR row offsets of an ascending frontier
    this is every frontier slot in the reference's visit order
    (ascending source, then ascending target within a row); with block
    offsets it indexes a subset of rows inside such a slot array. One
    ``repeat`` of the iota-corrected run bases plus an in-place add of
    the shared iota — the repeat is the only per-round allocation, and
    both passes vectorise (a cumsum-based run-sum was measured ~3x
    slower here: the scan's serial dependency beats the extra copy).
    """
    ends_excl = np.cumsum(counts) - counts
    slots = np.repeat(starts - ends_excl, counts)
    slots += _iota(slots.size, slots.dtype)
    return slots


def _no_success(itype) -> int:
    """Per-node "no success this round" sentinel: the dtype's max value
    (always above every candidate position, which is bounded by the
    edge count and therefore representable)."""
    return int(np.iinfo(itype).max)


def _resolve_round(
    cache: dict, tgt: np.ndarray, succ: np.ndarray, first: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Sequential-equivalent conflict resolution for one batched round.

    Given candidates in reference visit order, returns boolean masks
    ``(unattempted, winner)``: attempts run per target group up to and
    including its first success (everything, if none succeeds — so
    ``unattempted`` marks the slots *after* a success, which stay
    untried exactly as they would had the reference stopped attempting
    an already-activated node), and the first success is the group's
    single winner. ``first`` is a reusable per-node scratch array
    pinned at its dtype's :func:`_no_success` sentinel; the scatter-min
    over success positions replaces a sort over all candidates, and
    touched entries are reset before returning. Both returned masks
    live in scratch buffers that the next round reuses.
    """
    n = tgt.size
    succ_idx = np.flatnonzero(succ).astype(first.dtype)
    if succ_idx.size:
        succ_tgt = tgt[succ_idx]
        np.minimum.at(first, succ_tgt, succ_idx)
    first_pos = _scratch(cache, "first_pos", n, first.dtype)
    np.take(first, tgt, out=first_pos)
    pos = _iota(n, first.dtype)
    unattempted = _scratch(cache, "unattempted", n, bool)
    np.greater(pos, first_pos, out=unattempted)
    winner = _scratch(cache, "winner", n, bool)
    np.equal(pos, first_pos, out=winner)
    winner &= succ
    if succ_idx.size:
        first[succ_tgt] = _no_success(first.dtype)
    return unattempted, winner


def _materialise_arrays(
    compiled: CompiledGraph,
    validated: Dict[Node, NodeState],
    events: List[ActivationEvent],
    log: List[Tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]],
    rounds: int,
) -> DiffusionResult:
    """Array-log counterpart of :func:`repro.kernel.cascade._materialise`.

    The batched loops keep each round's winners as numpy arrays; this
    decodes them in one bulk ``tolist`` pass per round instead of
    round-by-round tuple zipping inside the hot loop. Event objects are
    built by installing the instance ``__dict__`` directly: the frozen
    dataclass ``__init__`` funnels every field through
    ``object.__setattr__``, which at tens of thousands of events per
    cascade is a measurable slice of the whole run. The resulting
    instances are indistinguishable (same fields, ``==``/``hash``/
    immutability all behave identically) — pinned by the backend unit
    tests. ``final_states`` insertion order matches the reference:
    seeds first, then first-activation order, flips re-assign in place.
    """
    nodes = compiled.nodes
    decode = _DECODE
    new = ActivationEvent.__new__
    cls = ActivationEvent
    append = events.append
    final_states = dict(validated)
    for round_index, w_src, w_tgt, s_new, was_flip in log:
        for u, v, s, flip in zip(
            w_src.tolist(), w_tgt.tolist(), s_new.tolist(), was_flip.tolist()
        ):
            state = decode[s]
            target = nodes[v]
            final_states[target] = state
            event = new(cls)
            event.__dict__.update(
                round=round_index,
                source=nodes[u],
                target=target,
                state=state,
                was_flip=flip,
            )
            append(event)
    return DiffusionResult(
        seeds=validated, final_states=final_states, events=events, rounds=rounds
    )


def mfc_cascade(
    compiled: CompiledGraph,
    validated: Dict[Node, NodeState],
    random: _random.Random,
    alpha: float,
    allow_flips: bool,
    max_rounds: int,
) -> Tuple[DiffusionResult, int]:
    """One frontier-batched MFC cascade; returns ``(result, attempts)``.

    Every round stages its work through the compiled graph's reusable
    scratch buffers (gathers and ufuncs write via ``out=``), and the
    candidate set is compacted once after the eligibility mask so the
    draw/resolve stage runs at kept width. The one-attempt-per-pair
    filter is an inverted ``untried`` flag array applied *after* that
    compress — and only once a flip has actually re-queued a seen
    source, since until then every kept slot is provably untried (both
    a pre-compress full-width gather and a per-re-entrant-row-block
    filter were measured slower than this kept-width form).
    """
    arrays = _ensure_arrays(compiled)
    indptr, targets, signs = arrays["indptr"], arrays["targets"], arrays["signs"]
    probs = _probabilities(compiled, alpha)
    # SFC64 is the fastest stdlib-shipped bit generator numpy offers;
    # the statistical tier pins no stream, only the seed derivation.
    rng = np.random.Generator(np.random.SFC64(random.getrandbits(128)))

    states, frontier, events = _plant(compiled, validated)
    itype, ttype = arrays["itype"], arrays["ttype"]
    untried = np.ones(compiled.num_edges, dtype=bool) if allow_flips else None
    first = np.full(compiled.num_nodes, _no_success(itype), dtype=itype)
    log: List[Tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
    rounds = 0
    attempts = 0
    may_retry = False  # True once any flip has re-queued a seen source

    while frontier.size and rounds < max_rounds:
        rounds += 1
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        nzm = counts > 0
        if not nzm.all():  # zero-degree rows contribute no slots
            frontier_nz = frontier[nzm]
            starts, counts = starts[nzm], counts[nzm]
        else:
            frontier_nz = frontier
        if not counts.size:
            break
        slots = _run_ranges(starts, counts)
        n = slots.size
        s_src = np.repeat(states[frontier_nz], counts)
        tgt = _scratch(arrays, "tgt", n, ttype)
        np.take(targets, slots, out=tgt)
        s_t = _scratch(arrays, "s_t", n, np.uint8)
        np.take(states, tgt, out=s_t)
        fresh = _scratch(arrays, "fresh", n, bool)
        np.equal(s_t, 0, out=fresh)
        if allow_flips:
            keep = _scratch(arrays, "keep", n, bool)
            np.not_equal(s_src, s_t, out=keep)
            sg = _scratch(arrays, "sg", n, bool)
            np.take(signs, slots, out=sg)
            keep &= sg
            keep |= fresh
        else:
            keep = fresh  # flips off: eligibility is freshness alone
        k = int(np.count_nonzero(keep))
        if not k:
            break
        slots_k = _scratch(arrays, "slots_k", k, itype)
        np.compress(keep, slots, out=slots_k)
        if may_retry:
            u = _scratch(arrays, "u", k, bool)
            np.take(untried, slots_k, out=u)
            ku = int(np.count_nonzero(u))
            if ku < k:
                if not ku:
                    break
                compacted = _scratch(arrays, "slots_k2", ku, itype)
                np.compress(u, slots_k, out=compacted)
                slots_k = compacted
                k = ku
        tgt_k = _scratch(arrays, "tgt_k", k, ttype)
        np.take(targets, slots_k, out=tgt_k)
        draws = _scratch(arrays, "draws", k, np.float32)
        rng.random(out=draws, dtype=np.float32)
        p = _scratch(arrays, "p", k, np.float32)
        np.take(probs, slots_k, out=p)
        succ = _scratch(arrays, "succ", k, bool)
        np.less(draws, p, out=succ)
        unatt, winner = _resolve_round(arrays, tgt_k, succ, first)
        if allow_flips:
            # The kept slots were all untried, so a plain scatter is exact.
            untried[slots_k] = unatt
        attempts += k - int(np.count_nonzero(unatt))
        win = np.flatnonzero(winner)  # ascending → slot order (reference order)
        if not win.size:
            break
        w_slots = slots_k[win]
        w_src = np.searchsorted(indptr, w_slots, side="right") - 1
        w_tgt = tgt_k[win].copy()  # the scratch row is reused next round
        s_new = np.where(signs[w_slots], states[w_src], 3 - states[w_src]).astype(
            np.uint8
        )
        was_flip = states[w_tgt] != 0  # pre-update: an active winner target flipped
        log.append((rounds, w_src, w_tgt, s_new, was_flip))
        if allow_flips and not may_retry:
            may_retry = bool(was_flip.any())
        states[w_tgt] = s_new
        frontier = np.sort(w_tgt)

    return _materialise_arrays(compiled, validated, events, log, rounds), attempts


def ic_cascade(
    compiled: CompiledGraph,
    validated: Dict[Node, NodeState],
    random: _random.Random,
    propagate_signs: bool,
) -> Tuple[DiffusionResult, int]:
    """One frontier-batched IC cascade; returns ``(result, attempts)``.

    Same uncompressed scratch-buffer scheme as :func:`mfc_cascade`,
    minus the parts IC cannot need: activation is one-shot, so no slot
    row is ever visited twice and the ``tried`` bookkeeping drops out
    entirely (attempt accounting still runs through the first-success
    conflict rule).
    """
    arrays = _ensure_arrays(compiled)
    indptr, targets, signs = arrays["indptr"], arrays["targets"], arrays["signs"]
    weights = arrays["weights"]
    # SFC64 is the fastest stdlib-shipped bit generator numpy offers;
    # the statistical tier pins no stream, only the seed derivation.
    rng = np.random.Generator(np.random.SFC64(random.getrandbits(128)))

    states, frontier, events = _plant(compiled, validated)
    itype, ttype = arrays["itype"], arrays["ttype"]
    first = np.full(compiled.num_nodes, _no_success(itype), dtype=itype)
    log: List[Tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
    rounds = 0
    attempts = 0

    while frontier.size:
        rounds += 1
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        nzm = counts > 0
        if not nzm.all():
            starts, counts = starts[nzm], counts[nzm]
        if not counts.size:
            break
        slots = _run_ranges(starts, counts)
        n = slots.size
        tgt = _scratch(arrays, "tgt", n, ttype)
        np.take(targets, slots, out=tgt)
        s_t = _scratch(arrays, "s_t", n, np.uint8)
        np.take(states, tgt, out=s_t)
        keep = _scratch(arrays, "keep", n, bool)
        np.equal(s_t, 0, out=keep)  # IC never re-activates
        k = int(np.count_nonzero(keep))
        if not k:
            break
        slots_k = _scratch(arrays, "slots_k", k, itype)
        np.compress(keep, slots, out=slots_k)
        tgt_k = _scratch(arrays, "tgt_k", k, ttype)
        np.take(targets, slots_k, out=tgt_k)
        draws = _scratch(arrays, "draws", k, np.float32)
        rng.random(out=draws, dtype=np.float32)
        p = _scratch(arrays, "p", k, np.float32)
        np.take(weights, slots_k, out=p)
        succ = _scratch(arrays, "succ", k, bool)
        np.less(draws, p, out=succ)
        unatt, winner = _resolve_round(arrays, tgt_k, succ, first)
        attempts += k - int(np.count_nonzero(unatt))
        win = np.flatnonzero(winner)
        if not win.size:
            break
        w_slots = slots_k[win]
        w_src = np.searchsorted(indptr, w_slots, side="right") - 1
        w_tgt = tgt_k[win].copy()
        if propagate_signs:
            s_new = np.where(signs[w_slots], states[w_src], 3 - states[w_src]).astype(
                np.uint8
            )
        else:
            s_new = states[w_src].astype(np.uint8)
        states[w_tgt] = s_new
        log.append((rounds, w_src, w_tgt, s_new, np.zeros(win.size, dtype=bool)))
        frontier = np.sort(w_tgt)

    return _materialise_arrays(compiled, validated, events, log, rounds), attempts


# ---------------------------------------------------------------------------
# Batched multi-trial cascades
# ---------------------------------------------------------------------------
#
# All T trials advance together as a (T, n) uint8 state matrix plus a
# *sparse* frontier: parallel (trial, node) index arrays kept sorted in
# row-major (trial, then node ascending) order. Winners come out of the
# conflict resolution as unique (trial, target) pairs, so the next
# round's frontier IS the winner list — one O(W log W) key sort restores
# row-major order (which fixes the candidate visit order and therefore
# the deterministic winner choice the p=1 invariants pin), where W is
# the live frontier size. A dense (T, n) frontier matrix was measured
# first and loses exactly where batching should win — long-tailed
# near-critical cascades with small frontiers — because every round
# pays O(T·n) to scan/clear the matrix regardless of how little is
# alive.
#
# Each global round expands the frontier pairs into one candidate
# array — CSR slot runs exactly as the single-cascade path does, with
# the trial id repeated alongside — and then reuses the single-cascade
# round machinery verbatim on *flattened* keys: the conflict-resolution
# scatter-min runs over `trial * n + target`, the one-attempt-per-pair
# flags over `trial * m + slot` (int64 keys throughout, so the products
# never overflow the itype). One RNG draw block per round covers every
# trial's attempts, which is the whole point: the per-round dispatch
# overhead (mask setup, take / compress staging, RNG slicing) is paid
# once per round instead of once per round *per trial*. Trials that
# quiesce (or hit max_rounds) simply stop contributing candidates.
#
# RNG derivation: the per-trial integer seeds (derive_seed(base, name,
# t), computed by the caller) are folded into one SeedSequence, so the
# batch is deterministic given (base_seed, trial count) — but, like the
# single-cascade numpy path, under a different stream than the
# reference: this tier is statistical, and per-trial results also
# differ from T single numpy cascades. Round semantics match the
# reference per trial: a trial's round counter increments exactly when
# its frontier enters a round non-empty and below max_rounds — including
# a final all-failure round.


def _seed_batch(
    compiled: CompiledGraph, validated: Dict[Node, NodeState], trials: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(T, n) state matrix plus the sparse seed frontier, row-major.

    Returns ``(states, f_tr, f_un)``: every trial seeded alike, the
    frontier as parallel (trial, node) arrays sorted by trial then node
    index — ``tile``/``repeat`` over the ascending seed positions yields
    that order directly.
    """
    n = compiled.num_nodes
    index = compiled.index
    seeded = sorted(
        (index[node], 1 if int(state) > 0 else 2) for node, state in validated.items()
    )
    idx = np.fromiter((i for i, _ in seeded), dtype=np.int64, count=len(seeded))
    vals = np.fromiter((s for _, s in seeded), dtype=np.uint8, count=len(seeded))
    states = np.zeros((trials, n), dtype=np.uint8)
    states[:, idx] = vals
    f_tr = np.repeat(np.arange(trials, dtype=np.int64), idx.size)
    f_un = np.tile(idx, trials)
    return states, f_tr, f_un


def _batch_rng(trial_seeds) -> np.random.Generator:
    """One SFC64 stream for the whole batch, derived from the trial seeds."""
    entropy = [int(seed) & 0xFFFFFFFFFFFFFFFF for seed in trial_seeds]
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(entropy or [0])))


def _batch_summary(
    compiled: CompiledGraph,
    validated: Dict[Node, NodeState],
    states: np.ndarray,
    flips: np.ndarray,
    rounds: np.ndarray,
    attempts: int,
    record_states: bool,
):
    """Count the final state mix per trial and box it as a batch summary."""
    from repro.kernel.batch import CascadeBatchSummary

    positive = (states == 1).sum(axis=1)
    negative = (states == 2).sum(axis=1)
    return CascadeBatchSummary(
        nodes=compiled.nodes,
        index=compiled.index,
        seeds=dict(validated),
        trials=states.shape[0],
        infected=(positive + negative).tolist(),
        positive=positive.tolist(),
        negative=negative.tolist(),
        flips=flips.tolist(),
        rounds=rounds.tolist(),
        attempts=int(attempts),
        states=states if record_states else None,
    )


def mfc_batch(
    compiled: CompiledGraph,
    validated: Dict[Node, NodeState],
    trial_seeds,
    namespace: str,
    alpha: float,
    allow_flips: bool,
    max_rounds: int,
    record_states: bool = False,
):
    """T MFC cascades as one ``(T, n)`` matrix sweep (statistical tier)."""
    arrays = _ensure_arrays(compiled)
    indptr, targets, signs = arrays["indptr"], arrays["targets"], arrays["signs"]
    probs = _probabilities(compiled, alpha)
    rng = _batch_rng(trial_seeds)
    T = len(trial_seeds)
    n = compiled.num_nodes
    m = compiled.num_edges

    states, f_tr, f_un = _seed_batch(compiled, validated, T)
    flat_states = states.reshape(-1)
    # Per-(trial, slot) one-attempt flags, flat. O(T * m) bools — the
    # batch tier's only superlinear buffer; allocated upfront (like the
    # single-cascade `untried`) because a flip in round r can re-queue a
    # source whose slots were attempted in any earlier round.
    untried = np.ones(T * m, dtype=bool) if allow_flips else None
    first = np.full(T * n, _no_success(np.int64), dtype=np.int64)
    rounds = np.zeros(T, dtype=np.int64)
    flips = np.zeros(T, dtype=np.int64)
    attempts = 0
    may_retry = False  # True once any flip has re-queued a seen source

    while f_tr.size:
        live = rounds[f_tr] < max_rounds
        if not live.all():  # retire capped trials
            f_tr, f_un = f_tr[live], f_un[live]
            if not f_tr.size:
                break
        present = np.zeros(T, dtype=bool)
        present[f_tr] = True
        rounds[present] += 1
        tr, un = f_tr, f_un  # row-major: by trial, then node asc
        starts = indptr[un]
        counts = indptr[un + 1] - starts
        nzm = counts > 0
        if not nzm.all():  # zero-degree rows contribute no slots
            tr, un = tr[nzm], un[nzm]
            starts, counts = starts[nzm], counts[nzm]
        if not counts.size:
            break
        slots = _run_ranges(starts, counts)
        trial_of = np.repeat(tr, counts)
        s_src = np.repeat(flat_states[tr * n + un], counts)
        tgt = targets[slots]
        tkey = trial_of * n + tgt
        s_t = flat_states[tkey]
        fresh = s_t == 0
        if allow_flips:
            keep = (signs[slots] & (s_src != s_t)) | fresh
        else:
            keep = fresh  # flips off: eligibility is freshness alone
        if not keep.all():
            slots = slots[keep]
            trial_of = trial_of[keep]
            tkey = tkey[keep]
        if not slots.size:
            break
        if may_retry:
            seen = untried[trial_of * m + slots]
            if not seen.all():
                slots = slots[seen]
                trial_of = trial_of[seen]
                tkey = tkey[seen]
                if not slots.size:
                    break
        k = slots.size
        draws = rng.random(k, dtype=np.float32)
        succ = draws < probs[slots]
        unatt, winner = _resolve_round(arrays, tkey, succ, first)
        if allow_flips:
            untried[trial_of * m + slots] = unatt
        attempts += k - int(np.count_nonzero(unatt))
        win = np.flatnonzero(winner)
        if not win.size:
            break  # no winners anywhere: every trial quiesces
        w_slots = slots[win]
        w_trial = trial_of[win]
        w_tkey = tkey[win]
        w_src = np.searchsorted(indptr, w_slots, side="right") - 1
        s_u = flat_states[w_trial * n + w_src]
        s_new = np.where(signs[w_slots], s_u, 3 - s_u).astype(np.uint8)
        was_flip = flat_states[w_tkey] != 0
        if was_flip.any():
            flips += np.bincount(w_trial[was_flip], minlength=T)
            if allow_flips:
                may_retry = True
        flat_states[w_tkey] = s_new
        # Winners are unique per (trial, target) key, so they *are* the
        # next frontier; sorting the keys restores row-major order.
        order = np.argsort(w_tkey)
        w_tkey = w_tkey[order]
        f_tr = w_trial[order]
        f_un = w_tkey - f_tr * n

    return _batch_summary(
        compiled, validated, states, flips, rounds, attempts, record_states
    )


def ic_batch(
    compiled: CompiledGraph,
    validated: Dict[Node, NodeState],
    trial_seeds,
    namespace: str,
    propagate_signs: bool,
    record_states: bool = False,
):
    """T IC cascades as one ``(T, n)`` matrix sweep (statistical tier).

    Same flattened-key scheme as :func:`mfc_batch`, minus flips,
    one-attempt flags and the round cap — IC activation is one-shot.
    """
    arrays = _ensure_arrays(compiled)
    indptr, targets, signs = arrays["indptr"], arrays["targets"], arrays["signs"]
    weights = arrays["weights"]
    rng = _batch_rng(trial_seeds)
    T = len(trial_seeds)
    n = compiled.num_nodes

    states, f_tr, f_un = _seed_batch(compiled, validated, T)
    flat_states = states.reshape(-1)
    first = np.full(T * n, _no_success(np.int64), dtype=np.int64)
    rounds = np.zeros(T, dtype=np.int64)
    attempts = 0

    while f_tr.size:
        present = np.zeros(T, dtype=bool)
        present[f_tr] = True
        rounds[present] += 1
        tr, un = f_tr, f_un
        starts = indptr[un]
        counts = indptr[un + 1] - starts
        nzm = counts > 0
        if not nzm.all():
            tr, un = tr[nzm], un[nzm]
            starts, counts = starts[nzm], counts[nzm]
        if not counts.size:
            break
        slots = _run_ranges(starts, counts)
        trial_of = np.repeat(tr, counts)
        tgt = targets[slots]
        tkey = trial_of * n + tgt
        keep = flat_states[tkey] == 0  # IC never re-activates
        if not keep.all():
            slots = slots[keep]
            trial_of = trial_of[keep]
            tkey = tkey[keep]
        if not slots.size:
            break
        k = slots.size
        draws = rng.random(k, dtype=np.float32)
        succ = draws < weights[slots]
        unatt, winner = _resolve_round(arrays, tkey, succ, first)
        attempts += k - int(np.count_nonzero(unatt))
        win = np.flatnonzero(winner)
        if not win.size:
            break
        w_slots = slots[win]
        w_trial = trial_of[win]
        w_tkey = tkey[win]
        w_src = np.searchsorted(indptr, w_slots, side="right") - 1
        s_u = flat_states[w_trial * n + w_src]
        if propagate_signs:
            s_new = np.where(signs[w_slots], s_u, 3 - s_u).astype(np.uint8)
        else:
            s_new = s_u.astype(np.uint8)
        flat_states[w_tkey] = s_new
        order = np.argsort(w_tkey)
        w_tkey = w_tkey[order]
        f_tr = w_trial[order]
        f_un = w_tkey - f_tr * n

    flips = np.zeros(T, dtype=np.int64)
    return _batch_summary(
        compiled, validated, states, flips, rounds, attempts, record_states
    )

