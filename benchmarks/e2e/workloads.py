"""The benchmark's workloads: what each one builds, runs, checks and reports.

Every workload is a fixed, paper-shaped instance built by the library's
own workload layers (profiled network, Jaccard weights, planted
initiators, MFC cascade) from ``WorkloadConfig(seed=7,
num_initiators=40)``. The instance is fixed because the cost of one
detect varies about 3.5x between cascades on the same network (0.98 to
3.49 s for a beta-mode detect at Epinions-like scale 0.01, cascade seeds
1-8), which no run of a few detects can average out. ``--seed`` instead
relabels every node id (:func:`relabeler`): each seed's inputs, and
every content digest derived from them, are new, while the computation
stays the same node for node.
"""

from __future__ import annotations

import json
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import repro
import repro.core.rid as rid_module
import repro.pipeline.stages as stages
from repro.diffusion.base import DiffusionResult
from repro.diffusion.mfc import MFCModel
from repro.diffusion.seeds import plant_random_initiators
from repro.experiments.config import WorkloadConfig
from repro.experiments.workload import build_network, dataset_profile
from repro.graphs.signed_digraph import SignedDiGraph
from repro.graphs.transforms import to_diffusion_network
from repro.metrics import f1_score, precision
from repro.pipeline.cache import encode_graph
from repro.serve import wire
from repro.stream import SnapshotDelta, StreamingDetectionEngine, synthetic_snapshot
from repro.types import NodeState
from repro.utils.rng import derive_seed
from repro.weights.jaccard import assign_jaccard_weights

from serve_load import ServerProcess, open_loop, pin_client
from spans import Span, Tracer
from speed import SpeedProbe

WORKLOAD_SEED = 7
PLANTED = 40
SETUP_ROUNDS = 3
STREAM_TRIALS = 8
#: Stream trials whose final snapshots get the cold beta-mode and budget
#: detects behind ``detect_s``, ``detect_budget_s``, ``f1`` and
#: ``precision`` (a fixed set: how many trials a run completes varies).
STREAM_QUALITY_TRIALS = 4

#: Open-loop serve traffic: requests per second, hot share, hot set size.
#: A hot request served alone takes about 13 ms; one that overlaps
#: another request (a Poisson clump, or a cold computation holding the
#: GIL) takes 20-50 ms. At 4 req/s only 50-55% of all requests were hot
#: and alone, so the median sat on that knee and moved by up to 35%
#: between runs; at 2.5 req/s 62-68% are, and the median stays inside
#: the fast cluster.
SERVE_RATE = 2.5
SERVE_HOT_SHARE = 0.8
SERVE_HOT_SNAPSHOTS = 4


@dataclass(frozen=True)
class Spec:
    """A workload; why each one exists is in ``BENCHMARK.json``."""

    kind: str  # "detect" | "stream" | "serve"
    dataset: str
    scale: float
    #: Latency limit of one unit of work, for ``slo_share``.
    limit_s: float


SPECS: Dict[str, Spec] = {
    "epinions-s01-detect": Spec("detect", "epinions", 0.01, limit_s=10.0),
    "epinions-s02-detect": Spec("detect", "epinions", 0.02, limit_s=30.0),
    "slashdot-s01-stream": Spec("stream", "slashdot", 0.01, limit_s=1.0),
    "slashdot-s005-serve": Spec("serve", "slashdot", 0.005, limit_s=1.0),
}

#: Layer functions the traced run wraps. The staged engine looks each
#: one up at call time: ``(owner, attribute, span name)``.
PIPELINE_LAYERS = (
    (stages, "prune_graph", "pipeline.prune"),
    (stages, "split_components", "pipeline.components"),
    (stages, "maximum_spanning_branching", "core.arborescence"),
    (stages, "split_branching_into_trees", "core.cascade_forest"),
    (rid_module, "binarize_cascade_tree", "core.binarize"),
    (stages, "greedy_tree_selection", "kernel.tree_dp"),
    (stages, "tree_curve", "kernel.tree_curve"),
    (stages.SelectionStage, "merge_greedy", "pipeline.selection"),
    (stages.SelectionStage, "knapsack", "pipeline.knapsack"),
)
BETA_LAYERS = (
    "pipeline.prune", "pipeline.components", "core.arborescence",
    "core.cascade_forest", "core.binarize", "kernel.tree_dp", "pipeline.selection",
)
STREAM_LAYERS = (
    (StreamingDetectionEngine, "apply", "stream.apply"),
    (StreamingDetectionEngine, "detect", "stream.detect"),
)


def relabeler(seed: int) -> Callable[[int], int]:
    """Node-id map for ``seed``: ``node -> int(prefix + str(node))``.

    ``prefix`` is a multiple of 2**20 written in decimal. A shared
    decimal prefix keeps repr order and numeric order, and adding a
    multiple of 2**20 keeps every id's hash modulo each set-table size
    up to 2**20, so set iteration order is kept as well: detection on a
    relabelled snapshot makes the same choices, ties included.
    """
    prefix = str((1 + seed % 999_983) << 20)
    return lambda node: int(prefix + str(node))


def relabel(graph: SignedDiGraph, new: Callable[[int], int]) -> SignedDiGraph:
    out = SignedDiGraph(name=graph.name)
    for node in graph.nodes():
        out.add_node(new(node), graph.state(node))
    for u, v, data in graph.iter_edges():
        out.add_edge(new(u), new(v), int(data.sign), data.weight)
    return out


@dataclass
class Snapshot:
    """One infected snapshot with its planted ground truth."""

    graph: SignedDiGraph
    planted: Dict[int, NodeState]
    deltas: List[SnapshotDelta] = field(default_factory=list)


@dataclass
class World:
    diffusion: SignedDiGraph
    snapshots: List[Snapshot]


def build_world(spec: Spec, scale: float, trials: int, seed: int, tracer: Tracer) -> World:
    """``build_workload``'s steps, with the network built once for all trials.

    Trial ``t`` is ``build_workload(config, trial=t)``'s cascade; the
    smoke test pins the two against each other.
    """
    config = WorkloadConfig(
        dataset=spec.dataset, scale=scale, num_initiators=PLANTED, seed=WORKLOAD_SEED
    )
    with tracer.span("graphs.network"):
        social = build_network(config)
    with tracer.span("weights.jaccard"):
        diffusion = to_diffusion_network(social)
        assign_jaccard_weights(
            diffusion,
            social,
            zero_fill_range=config.jaccard_zero_fill,
            rng=derive_seed(config.seed, "weights"),
            gain=dataset_profile(config.dataset).default_jaccard_gain,
        )
    model = MFCModel(alpha=config.alpha)
    count = min(config.resolved_num_initiators(), diffusion.number_of_nodes())
    cascades = []
    for trial in range(trials):
        seeds = plant_random_initiators(
            diffusion, count=count, positive_ratio=config.positive_ratio,
            rng=derive_seed(config.seed, "seeds", trial),
        )
        with tracer.span("diffusion.simulate"):
            rng = derive_seed(config.seed, "cascade", trial)
            cascades.append(model.run(diffusion, seeds, rng=rng))
    with tracer.span("bench.snapshots"):
        new = relabeler(seed)
        snapshots = [
            Snapshot(
                graph=relabel(cascade.infected_network(diffusion), new),
                planted={new(n): s for n, s in cascade.seeds.items()},
                deltas=round_deltas(cascade, new) if spec.kind == "stream" else [],
            )
            for cascade in cascades
        ]
        if spec.kind == "stream":
            diffusion = relabel(diffusion, new)  # every node still inactive
    return World(diffusion=diffusion, snapshots=snapshots)


def round_deltas(cascade: DiffusionResult, new: Callable[[int], int]) -> List[SnapshotDelta]:
    """One delta per cascade round; round 0 infects the seeds."""
    rounds: Dict[int, Dict[int, NodeState]] = {}
    for event in cascade.events:
        rounds.setdefault(event.round, {})[new(event.target)] = event.state
    return [SnapshotDelta(states=rounds[r]) for r in sorted(rounds)]


def request_body(graph: SignedDiGraph) -> bytes:
    """A ``POST /v1/detect`` body for ``graph``."""
    return json.dumps({"schema": wire.WIRE_SCHEMA, "graph": encode_graph(graph)}).encode("utf-8")


def warm_up() -> None:
    """Pay lazy imports and first-call costs on a tiny synthetic snapshot."""
    tiny = synthetic_snapshot(components=3, size=12, seed=1)
    repro.detect(tiny.copy())
    repro.detect(tiny.copy(), budget=4)
    payload = wire.parse_body(request_body(tiny))
    wire.payload_digest(payload)
    wire.graph_from_json(payload["graph"])


# ---------------------------------------------------------------------------
# Results, checks and statistics
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    """Metrics, report lines and the correctness gate of one run."""

    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    report: List[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def check(self, ok: bool, message: str) -> bool:
        """A correctness check on one attempted operation."""
        if not ok:
            self.failed += 1
            self.errors.append(message)
        return ok


def answer(result) -> tuple:
    """What a detection answers: initiators, their states, the objective."""
    return (
        sorted(result.initiators, key=repr),
        sorted((repr(n), int(s)) for n, s in result.states.items()),
        result.objective,
    )


def same_detection(a, b) -> bool:
    """Equal initiators and states; objectives equal up to float rounding.

    Streamed and cold runs may pick different co-optimal cascade trees
    (arborescence ties break by insertion order), which reorders the
    float sum behind the objective; the stream report counts those.
    """
    ia, sa, oa = answer(a)
    ib, sb, ob = answer(b)
    return ia == ib and sa == sb and abs(oa - ob) <= 1e-9 * max(1.0, abs(oa))


def same_trees(a, b) -> bool:
    return [encode_graph(t) for t in a.trees] == [encode_graph(t) for t in b.trees]


def p90(values: Sequence[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def put_quality(out: Outcome, results: Sequence[Tuple[Any, Dict]]) -> None:
    """Mean F1 and precision of detected against planted initiators."""
    pairs = [(set(result.initiators), set(planted)) for result, planted in results]
    for name, score in (("f1", f1_score), ("precision", precision)):
        out.put(name, statistics.mean(score(found, truth) for found, truth in pairs), "ratio")


def budget_for(result, planted: int) -> int:
    """Exact-k budget: the planted count, or the tree count when larger
    (every cascade tree needs at least its root)."""
    return max(planted, len(result.trees))


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# The benchmark run
# ---------------------------------------------------------------------------


class Run:
    """One invocation: set up, then measure (untraced) or attribute (traced)."""

    def __init__(self, name: str, seed: int, seconds: float, scale: Optional[float],
                 src: Path, probe: SpeedProbe) -> None:
        self.spec = spec = SPECS[name]
        self.seed = seed
        self.seconds = seconds
        self.scale = scale if scale is not None else spec.scale
        self.src = src
        #: Rescales measured intervals to the reference speed.
        self.probe = probe
        self.tracer = Tracer(f"{name}/seed={seed}")
        self.out = Outcome()
        self.server: Optional[ServerProcess] = None
        self.bodies: List[bytes] = []

    def timed(self, fn, *args, **kwargs):
        """``fn(...)``, its time at the reference speed and its wall time."""
        start = time.perf_counter()
        value = fn(*args, **kwargs)
        end = time.perf_counter()
        return value, self.probe.at_reference(start, end), end - start

    # -- set-up ---------------------------------------------------------

    def requests(self) -> int:
        return max(2, round(SERVE_RATE * self.seconds))

    def cold_requests(self) -> int:
        return max(1, round((1 - SERVE_HOT_SHARE) * self.requests()))

    def trials(self) -> int:
        if self.spec.kind == "stream":
            return STREAM_TRIALS
        if self.spec.kind == "serve":
            return SERVE_HOT_SNAPSHOTS + self.cold_requests()
        return 1

    def setup(self) -> None:
        """Build the workload SETUP_ROUNDS times, plus server start-up on
        serve; ``setup_s`` is the median round."""
        warm_up()
        if self.spec.kind == "serve":
            pin_client()
        self.setup_rounds: List[Span] = []
        server = None
        try:
            for _ in range(SETUP_ROUNDS):
                if server is not None:
                    server.stop()
                    server = None
                with self.tracer.span("bench.setup") as round_span:
                    world = build_world(
                        self.spec, self.scale, self.trials(), self.seed, self.tracer
                    )
                    if self.spec.kind == "serve":
                        bodies = [request_body(s.graph) for s in world.snapshots]
                        with self.tracer.span("serve.startup"):
                            server = ServerProcess(self.src)
                self.setup_rounds.append(round_span)
        except BaseException:
            if server is not None:
                server.kill()
            raise
        self.world = world
        self.server = server
        if self.spec.kind == "serve":
            self.bodies = bodies
        self.out.put("setup_s", statistics.median(
            self.probe.at_reference(s.start, s.end) for s in self.setup_rounds), "s")

    def close(self) -> None:
        """Stop the server (SIGTERM, so it drains) and check its exit."""
        if self.server is not None:
            server, self.server = self.server, None
            code = server.stop()
            if code != 0:
                self.out.errors.append(f"server exited with code {code} after SIGTERM")

    # -- untraced: end-to-end metrics -------------------------------------

    def measure(self) -> None:
        {"detect": self.measure_detect, "stream": self.measure_stream,
         "serve": self.measure_serve}[self.spec.kind]()

    def measure_detect(self) -> None:
        """Alternate cold beta-mode and budget detects on fresh copies of the
        snapshot until the run's time is up, at least one of each."""
        out, snapshot = self.out, self.world.snapshots[0]
        until = time.perf_counter() + self.seconds
        times: Dict[str, List[float]] = {"beta": [], "budget": []}
        walls: Dict[str, List[float]] = {"beta": [], "budget": []}
        first: Dict[str, Any] = {}
        beta_ok = []
        while not times["budget"] or time.perf_counter() < until:
            mode = "beta" if len(times["beta"]) <= len(times["budget"]) else "budget"
            budget = None if mode == "beta" else budget_for(first["beta"], len(snapshot.planted))
            result, seconds, wall = self.timed(repro.detect, snapshot.graph.copy(), budget=budget)
            times[mode].append(seconds)
            walls[mode].append(wall)
            out.attempted += 1
            reference = first.setdefault(mode, result)
            ok = out.check(
                answer(result) == answer(reference)
                and (budget is None or len(result.initiators) == budget),
                f"{mode} rep {len(times[mode])} differs from the first {mode} rep "
                "or missed its budget",
            )
            if mode == "beta":
                beta_ok.append(ok)
        beta = times["beta"]
        out.put("detect_s", statistics.median(beta), "s")
        out.put("detect_budget_s", statistics.median(times["budget"]), "s")
        out.put("latency_p50_s", statistics.median(beta), "s")
        out.put("latency_p90_s", p90(beta), "s")
        within = sum(ok and t <= self.spec.limit_s for ok, t in zip(beta_ok, beta))
        out.put("slo_share", within / len(beta), "ratio")
        put_quality(out, [(first["beta"], snapshot.planted)])
        out.put("peak_rss_mb", own_peak_rss_mb(), "MB")
        result = first["beta"]
        for mode in ("beta", "budget"):
            out.report.append(f"{mode} reps, wall / at reference speed (s): " + ", ".join(
                f"{w:.3f}/{t:.3f}" for w, t in zip(walls[mode], times[mode])))
        out.report.append(
            f"detected {len(result.initiators)} of {len(snapshot.planted)} planted "
            f"over {len(result.trees)} cascade trees"
        )

    def replay(self, until: float):
        """Step through the trials' deltas, one fresh engine per trial, until
        ``until`` (the first trial always completes). Returns the steps as
        ``(trial, seconds, StreamStep)`` and each completed trial's final
        result."""
        steps, finals = [], {}
        trial = 0
        while not finals or time.perf_counter() < until:
            index = trial % len(self.world.snapshots)
            engine = StreamingDetectionEngine(self.world.diffusion)
            for delta in self.world.snapshots[index].deltas:
                with self.tracer.span("stream.step"):
                    step, seconds, _ = self.timed(engine.step, delta)
                steps.append((index, seconds, step))
                if finals and time.perf_counter() >= until:
                    return steps, finals
            finals.setdefault(index, step.result)
            trial += 1
        return steps, finals

    def cold_detects(self, snapshots: Sequence[Snapshot]):
        results, seconds = [], []
        for snapshot in snapshots:
            result, elapsed, _ = self.timed(repro.detect, snapshot.graph.copy())
            self.out.attempted += 1
            results.append(result)
            seconds.append(elapsed)
        return results, seconds

    def budget_detects(self, snapshots: Sequence[Snapshot], cold: Sequence) -> List[float]:
        seconds = []
        for snapshot, result in zip(snapshots, cold):
            k = budget_for(result, len(snapshot.planted))
            budgeted, elapsed, _ = self.timed(repro.detect, snapshot.graph.copy(), budget=k)
            self.out.attempted += 1
            self.out.check(len(budgeted.initiators) == k,
                           f"budget detect returned {len(budgeted.initiators)} initiators, not {k}")
            seconds.append(elapsed)
        return seconds

    def measure_stream(self) -> None:
        out, snapshots = self.out, self.world.snapshots
        steps, finals = self.replay(time.perf_counter() + self.seconds)
        out.attempted += len(steps)
        # Cold detects: the fixed quality trials, plus every completed trial
        # for the gate (how many complete depends on the host's speed).
        quality_trials = range(STREAM_QUALITY_TRIALS)
        checked = sorted(set(quality_trials) | set(finals))
        results, seconds = self.cold_detects([snapshots[i] for i in checked])
        cold = dict(zip(checked, results))
        cold_seconds = dict(zip(checked, seconds))
        budget_seconds = self.budget_detects(
            [snapshots[i] for i in quality_trials], [cold[i] for i in quality_trials]
        )
        bad_trials = set()
        for index in sorted(finals):
            if not out.check(same_detection(finals[index], cold[index]),
                             f"trial {index}: the final streamed step differs from a cold detect"):
                bad_trials.add(index)
        latencies = [seconds for _, seconds, _ in steps]
        within = sum(i not in bad_trials and t <= self.spec.limit_s for i, t, _ in steps)
        out.put("detect_s", statistics.median(cold_seconds[i] for i in quality_trials), "s")
        out.put("detect_budget_s", statistics.median(budget_seconds), "s")
        out.put("latency_p50_s", statistics.median(latencies), "s")
        out.put("latency_p90_s", p90(latencies), "s")
        out.put("slo_share", within / len(steps), "ratio")
        put_quality(out, [(cold[i], snapshots[i].planted) for i in quality_trials])
        out.put("peak_rss_mb", own_peak_rss_mb(), "MB")

        reused = sum(step.reused_artifacts for _, _, step in steps)
        computed = sum(step.computed_artifacts for _, _, step in steps)
        mismatched = sum(not same_trees(finals[i], cold[i]) for i in finals)
        out.report.append(
            f"{len(steps)} steps over {len(finals)} completed trials; cascade trees differ "
            f"from the cold run on {mismatched} of {len(finals)} (initiators and states agree)"
        )
        rows = {
            "stream.deltas": len(steps),
            "stream.dirty_components": sum(s.report.invalidated_components for _, _, s in steps),
            "stream.reused_artifacts": reused,
            "stream.computed_artifacts": computed,
            "stream.artifact_reuse": reused / (reused + computed),
        }
        out.report.append(f"stream layers (artifact reuse is over {reused + computed} lookups):")
        out.report.extend(f"  {name:<28} {value:.6g}" for name, value in rows.items())

    def serve_schedule(self) -> List[Tuple[float, int]]:
        """Poisson arrivals and the hot/cold mix as ``(offset, body index)``.

        Bodies ``0..HOT-1`` are the hot snapshots; each cold request gets
        its own never-seen snapshot. The schedule depends only on the
        request count, so every seed replays the same traffic."""
        rng = random.Random(WORKLOAD_SEED)
        n, cold = self.requests(), self.cold_requests()
        kinds = ["cold"] * cold + ["hot"] * (n - cold)
        rng.shuffle(kinds)
        schedule, offset, next_cold = [], 0.0, SERVE_HOT_SNAPSHOTS
        for kind in kinds:
            offset += rng.expovariate(SERVE_RATE)
            if kind == "hot":
                schedule.append((offset, rng.randrange(SERVE_HOT_SNAPSHOTS)))
            else:
                schedule.append((offset, next_cold))
                next_cold += 1
        return schedule

    def decoded(self, index: int) -> SignedDiGraph:
        """Snapshot ``index`` as the server decodes it from the wire."""
        return wire.graph_from_json(json.loads(self.bodies[index])["graph"])

    def measure_serve(self) -> None:
        out, server = self.out, self.server
        oracles, oracle_seconds = self.cold_detects([
            Snapshot(self.decoded(i), {}) for i in range(len(self.bodies))
        ])
        expected = [json.loads(json.dumps(r.to_json())) for r in oracles]
        hot = self.world.snapshots[:SERVE_HOT_SNAPSHOTS]
        budget_seconds = self.budget_detects(hot, oracles)

        # Lazy imports on the server, then one request per hot snapshot.
        tiny = request_body(synthetic_snapshot(components=3, size=12, seed=1))
        open_loop(server.host, server.port, [tiny], [(0.0, 0)], connections=1)
        for reply in open_loop(server.host, server.port, self.bodies,
                               [(0.0, i) for i in range(SERVE_HOT_SNAPSHOTS)], connections=1):
            if reply.status != 200 or json.loads(reply.body)["result"] != expected[reply.index]:
                out.errors.append(f"warm-up request for hot snapshot {reply.index} failed")

        schedule = self.serve_schedule()
        before = server.get("/v1/stats")["metrics"]
        replies = open_loop(server.host, server.port, self.bodies, schedule)
        after = server.get("/v1/stats")["metrics"]
        out.put("peak_rss_mb", server.peak_rss_mb(), "MB")
        self.close()  # the server's speed samples arrive when it exits

        out.attempted += len(replies)
        good = [
            out.check(reply.status == 200 and json.loads(reply.body)["result"] == expected[b],
                      f"request {reply.index} (HTTP {reply.status}) did not return "
                      "the direct result")
            for reply, (_, b) in zip(replies, schedule)
        ]
        # Rescaled by the speed of the server's CPU while each request was open.
        latencies = [server.speed.at_reference(r.scheduled, r.done) for r in replies]
        lateness = statistics.median(reply.lateness for reply in replies)
        if lateness > 0.005:
            out.errors.append(f"generator ran {lateness * 1e3:.1f} ms late (p50): run invalid")
        out.put("detect_s", statistics.median(oracle_seconds), "s")
        out.put("detect_budget_s", statistics.median(budget_seconds), "s")
        out.put("latency_p50_s", statistics.median(latencies), "s")
        out.put("latency_p90_s", p90(latencies), "s")
        within = sum(ok and t <= self.spec.limit_s for ok, t in zip(good, latencies))
        out.put("slo_share", within / len(replies), "ratio")
        put_quality(out, [(r, s.planted) for r, s in zip(oracles, self.world.snapshots)])
        self.report_serve(schedule, replies, latencies, before, after, lateness)

    def report_serve(self, schedule, replies, latencies, before, after, lateness) -> None:
        def count(name):
            return after["counters"].get(name, 0) - before["counters"].get(name, 0)

        def mean(name):
            a, b = after["timers"].get(name), before["timers"].get(name, {"count": 0, "total": 0.0})
            if a is None or a["count"] == b["count"]:
                return float("nan")
            return (a["total"] - b["total"]) / (a["count"] - b["count"])

        def hit_share(prefix):
            hits, misses = count(f"{prefix}.hits"), count(f"{prefix}.misses")
            return hits / (hits + misses) if hits + misses else float("nan")

        def p50(samples):
            return statistics.median(samples) if samples else float("nan")

        hot = [t for t, (_, b) in zip(latencies, schedule) if b < SERVE_HOT_SNAPSHOTS]
        cold = [t for t, (_, b) in zip(latencies, schedule) if b >= SERVE_HOT_SNAPSHOTS]
        rows = {
            "serve.wall_p50_s": p50([r.latency for r in replies]),
            "serve.hot_p50_s": p50(hot),
            "serve.cold_p50_s": p50(cold),
            "serve.queue_wait_s": mean("serve.queue_wait"),
            "serve.compute_s": mean("serve.detect"),
            "serve.http_s": mean("serve.http.detect"),
            "serve.graph_cache_hit": hit_share("serve.graph_cache"),
            "serve.engine_cache_hit": hit_share("serve.engine_cache"),
            "serve.coalesced": count("serve.coalesced"),
            "serve.shed": count("serve.shed"),
            "serve.timeouts": count("serve.timeouts"),
            "serve.requests_sent": len(replies),
            "serve.requests_failed": sum(r.status != 200 for r in replies),
            "serve.generator_late_p50_s": lateness,
        }
        self.out.report.append(
            f"serve layers ({len(hot)} hot and {len(cold)} cold requests; hot/cold p50 at "
            "reference speed; server means from /v1/stats, wall time):"
        )
        self.out.report.extend(f"  {name:<28} {value:.6g}" for name, value in rows.items())

    # -- traced: per-layer metrics ----------------------------------------

    def representative(self) -> Snapshot:
        """What the traced run attributes: the detect workload's snapshot,
        stream trial 0's final snapshot, or hot snapshot 0 as decoded."""
        snapshot = self.world.snapshots[0]
        if self.spec.kind == "serve":
            return Snapshot(self.decoded(0), snapshot.planted)
        return snapshot

    def traced_detect(self, snapshot: Snapshot, budget: Optional[int] = None):
        """One cold ``repro.detect`` with every pipeline layer wrapped."""
        sinks: Dict[str, list] = {name: [] for _, _, name in PIPELINE_LAYERS}
        targets = [(owner, attr, name, sinks[name]) for owner, attr, name in PIPELINE_LAYERS]
        graph = snapshot.graph.copy()
        with self.tracer.patched(targets):
            with self.tracer.span("repro.detect", budget=budget) as root:
                result = repro.detect(graph, budget=budget)
        return result, root, sinks

    def attribute(self) -> None:
        out, tracer = self.out, self.tracer
        snapshot = self.representative()
        planted = len(snapshot.planted)
        with tracer.span("bench.untraced_detect") as untraced:
            reference = repro.detect(snapshot.graph.copy())
        result, root, sinks = self.traced_detect(snapshot)
        out.attempted += 2
        out.check(answer(result) == answer(reference),
                  "traced detect differs from the untraced one")
        out.check(reassembled_greedy(sinks) == answer(result),
                  "beta-mode layer outputs do not reassemble repro.detect's result")
        at_reference = self.probe.at_reference
        layers = tracer.self_times(root, at_reference)
        k = budget_for(result, planted)
        budgeted, budget_root, budget_sinks = self.traced_detect(snapshot, budget=k)
        out.attempted += 1
        out.check(
            len(budgeted.initiators) == k
            and reassembled_budget(budget_sinks) == answer(budgeted),
            "budget-mode layer outputs do not reassemble repro.detect's result",
        )
        budget_layers = tracer.self_times(budget_root, at_reference)

        setup = [tracer.self_times(span, at_reference) for span in self.setup_rounds]
        for name in ("graphs.network", "weights.jaccard", "diffusion.simulate"):
            out.put(f"{name}_s", statistics.median(s[name] for s in setup), "s")
        for name in BETA_LAYERS:
            out.put(f"{name}_s", layers.get(name, 0.0), "s")
        out.put("pipeline.unattributed_s", layers["repro.detect"], "s")
        for name in ("kernel.tree_curve", "pipeline.knapsack"):
            out.put(f"{name}_s", budget_layers[name], "s")

        (components,) = sinks["pipeline.components"]
        trees = [tree for found in sinks["core.cascade_forest"] for tree in found]
        out.put("pipeline.components", len(components), "count")
        out.put("pipeline.trees", len(trees), "count")
        out.put("pipeline.max_component_nodes",
                max(c.number_of_nodes() for c in components), "count")
        out.put("pipeline.max_tree_nodes", max(t.number_of_nodes() for t in trees), "count")
        out.put("kernel.k_iterations", sum(s.scanned_k for s in sinks["kernel.tree_dp"]), "count")
        out.put("result.detected", len(result.initiators), "count")
        out.put("result.planted", planted, "count")
        out.put("result.budget", k, "count")
        self.wire_layers(snapshot, result)
        traced_s = at_reference(root.start, root.end)
        untraced_s = at_reference(untraced.start, untraced.end)
        out.put("trace.overhead", traced_s / untraced_s - 1.0, "ratio")
        out.report.append(
            f"traced detect {traced_s:.3f} s, untraced {untraced_s:.3f} s (reference speed); "
            f"layers cover {1.0 - layers['repro.detect'] / traced_s:.1%} of the traced detect"
        )
        if self.spec.kind == "stream":
            self.attribute_stream()

    def wire_layers(self, snapshot: Snapshot, result) -> None:
        """Time the serve wire codecs on this workload's request bodies
        (three passes over a single body on the non-serve workloads)."""
        span, at_reference = self.tracer.span, self.probe.at_reference
        bodies = self.bodies or [request_body(snapshot.graph)] * 3
        timings: Dict[str, List[float]] = {}
        for body in bodies:
            with span("serve.wire_parse") as parse:
                payload = wire.parse_body(body)
            with span("serve.wire_digest") as digest:
                wire.payload_digest(payload)  # the route's coalescing key
                wire.payload_digest(payload["graph"])  # the worker's graph-cache key
            with span("serve.wire_decode") as decode:
                wire.graph_from_json(payload["graph"])
            with span("serve.result_encode") as encode:
                json.dumps(wire.envelope({"result": result.to_json(), "detector": "rid"}))
            for timing in (parse, digest, decode, encode):
                timings.setdefault(timing.name, []).append(at_reference(timing.start, timing.end))
        for name, durations in timings.items():
            self.out.put(f"{name}_s", statistics.median(durations), "s")

    def attribute_stream(self) -> None:
        """Replay with ``apply`` and ``detect`` wrapped (report only)."""
        targets = [(owner, attr, name, None) for owner, attr, name in STREAM_LAYERS]
        start = len(self.tracer.spans)
        with self.tracer.patched(targets):
            steps, _ = self.replay(time.perf_counter() + self.seconds)
        spans = self.tracer.spans[start:]
        at_reference = self.probe.at_reference

        def median_of(name):
            return statistics.median(at_reference(s.start, s.end) for s in spans if s.name == name)

        rows = {
            "stream.deltas": len(steps),
            "stream.apply_s": median_of("stream.apply"),
            "stream.detect_s": median_of("stream.detect"),
        }
        self.out.report.append("stream layers (per delta, medians at reference speed):")
        self.out.report.extend(f"  {name:<28} {value:.6g}" for name, value in rows.items())


def reassembled_greedy(sinks) -> tuple:
    """The beta-mode answer rebuilt from the per-tree selections."""
    initiators: Dict[Any, NodeState] = {}
    objective = 0.0
    for selection in sinks["kernel.tree_dp"]:
        initiators.update(selection.initiators)
        objective += selection.penalized_objective
    return (
        sorted(initiators, key=repr),
        sorted((repr(n), int(s)) for n, s in initiators.items()),
        objective,
    )


def reassembled_budget(sinks) -> tuple:
    """The budget-mode answer rebuilt from the OPT curves and the knapsack."""
    ((per_tree, best),) = sinks["pipeline.knapsack"]
    initiators: Dict[Any, NodeState] = {}
    for curve, taken in zip(sinks["kernel.tree_curve"], per_tree):
        initiators.update(curve.results[taken - 1].initiators)
    return (
        sorted(initiators, key=repr),
        sorted((repr(n), int(s)) for n, s in initiators.items()),
        best,
    )
