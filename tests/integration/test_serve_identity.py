"""Integration: served responses are bit-identical to direct library calls.

This is the serving tier's acceptance gate. For every endpoint the wire
payload coming back over HTTP must equal the canonical-JSON encoding of
the same call made in-process — at ``workers=1`` and ``workers=2``
(shard affinity must not change answers), cold and warm (cache reuse
must not change answers).

A real server runs on a background thread per fixture; the stdlib
client talks to it over a loopback socket, so the HTTP framing, the
wire schema, the worker pool, and the codecs are all on the hot path.
"""

import json

import pytest

import repro
from repro.core.rid import RIDConfig
from repro.diffusion.mfc import MFCModel
from repro.diffusion.sir import SIRModel
from repro.errors import (
    ConfigError,
    EmptyInfectionError,
    ServeClientError,
    SessionExistsError,
    SessionNotFoundError,
)
from repro.graphs.generators.random_graphs import signed_erdos_renyi
from repro.serve import ServeClient, ServeConfig, start_in_thread
from repro.serve.pool import MAX_SERVED_ROUNDS, MAX_SERVED_SCALE, MAX_SERVED_TRIALS
from repro.stream import StreamingDetectionEngine, synthetic_stream
from repro.types import NodeState


def post_raw(client, route, body):
    """POST ``body`` (schema-tagged here) and return ``(status, envelope)``."""
    import http.client

    conn = http.client.HTTPConnection(client.host, client.port, timeout=30)
    try:
        payload = dict(body, schema="repro.serve/v1")
        conn.request("POST", route, body=json.dumps(payload).encode())
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True)


@pytest.fixture(scope="module", params=[1, 2], ids=["workers=1", "workers=2"])
def served(request):
    config = ServeConfig(workers=request.param, timeout=120.0)
    with start_in_thread(config) as handle:
        with ServeClient(handle.url) as client:
            yield client, handle


@pytest.fixture(scope="module")
def network():
    return signed_erdos_renyi(
        50, 0.09, positive_probability=0.8, weight_range=(0.1, 0.6), rng=5
    )


@pytest.fixture(scope="module")
def infected(network):
    cascade = MFCModel(alpha=3.0).run(
        network, {0: NodeState.POSITIVE, 7: NodeState.NEGATIVE}, rng=11
    )
    return cascade.infected_network(network)


class TestDetectIdentity:
    def test_served_detect_is_bit_identical(self, served, infected):
        client, _ = served
        direct = repro.detect(infected)
        payload = client.detect(infected, raw=True)
        assert canonical(payload["result"]) == canonical(direct.to_json())

    def test_warm_replay_is_bit_identical(self, served, infected):
        client, _ = served
        direct = repro.detect(infected)
        first = client.detect(infected, raw=True)
        second = client.detect(infected, raw=True)
        assert second["cache"]["graph"] == "hot"
        assert canonical(first["result"]) == canonical(second["result"])
        assert canonical(second["result"]) == canonical(direct.to_json())

    def test_budget_and_config_forms(self, served, infected):
        client, _ = served
        config = RIDConfig(beta=0.09)
        direct = repro.detect(infected, config=config, budget=5)
        payload = client.detect(infected, budget=5, config=config, raw=True)
        assert canonical(payload["result"]) == canonical(direct.to_json())

    def test_decoded_result_matches_local_type(self, served, infected):
        client, _ = served
        result = client.detect(infected)
        direct = repro.detect(infected)
        assert result.initiators == direct.initiators
        assert result.states == direct.states
        assert result.objective == direct.objective


class TestSimulateIdentity:
    def test_single_cascade(self, served, network):
        client, _ = served
        seeds = {0: NodeState.POSITIVE, 7: NodeState.NEGATIVE}
        direct = repro.simulate(network, seeds, rng=11)
        remote = client.simulate(network, seeds, rng=11)
        assert remote.events == direct.events
        assert remote.final_states == direct.final_states

    def test_multi_trial(self, served, network):
        client, _ = served
        seeds = {0: NodeState.POSITIVE}
        direct = repro.simulate(network, seeds, trials=3, rng=9)
        remote = client.simulate(network, seeds, trials=3, rng=9)
        assert [r.events for r in remote] == [d.events for d in direct]

    def test_model_params_travel(self, served, network):
        client, _ = served
        seeds = {0: NodeState.POSITIVE}
        direct = repro.simulate(network, seeds, model=MFCModel(alpha=2.0), rng=3)
        remote = client.simulate(
            network, seeds, model="mfc", params={"alpha": 2.0}, rng=3
        )
        assert remote.events == direct.events


class TestStreamSessionIdentity:
    def test_every_delta_matches_local_engine(self, served):
        client, handle = served
        snapshot, deltas = synthetic_stream(components=4, size=10, deltas=6, seed=3)
        local = StreamingDetectionEngine(snapshot)
        name = f"identity-{handle.server.config.workers}"
        with client.open_session(name, snapshot) as session:
            for delta in deltas:
                remote = session.delta(delta)
                step = local.step(delta)
                assert canonical(remote["result"]) == canonical(
                    step.result.to_json()
                ), f"divergence at delta {remote['report']['delta_index']}"
                assert remote["report"]["touched_nodes"] == step.report.touched_nodes
                assert remote["detection"].initiators == step.result.initiators

    def test_sessions_are_isolated_and_closeable(self, served):
        client, handle = served
        snapshot, deltas = synthetic_stream(components=3, size=8, deltas=1, seed=9)
        name = f"iso-{handle.server.config.workers}"
        session = client.open_session(name, snapshot)
        assert client.session_info(name)["session"] == name
        with pytest.raises(SessionExistsError):
            client.open_session(name, snapshot)
        session.delta(deltas[0])
        assert session.close()["closed"] is True
        with pytest.raises(SessionNotFoundError):
            client.session_info(name)


class TestEvaluateIdentity:
    def test_aggregated_scores_match(self, served):
        client, _ = served
        from repro.core.rid import RID
        from repro.experiments.config import WorkloadConfig

        workload = WorkloadConfig(dataset="epinions", scale=0.004, seed=3)
        direct = repro.evaluate(lambda: RID(RIDConfig()), workload, trials=2)
        remote = client.evaluate(workload, trials=2)["evaluation"]
        assert remote["f1"] == direct.f1
        assert remote["precision"] == direct.precision
        assert remote["seconds"] >= 0  # wall time is the one non-identical field


class TestErrorSurface:
    def test_config_error_maps_to_400(self, served, infected):
        client, _ = served
        with pytest.raises(ConfigError, match="alpha must be >= 1"):
            client.detect(infected, config=RIDConfig(alpha=0.5))

    def test_empty_infection_maps_to_422(self, served, network):
        client, _ = served
        from repro.graphs.signed_digraph import SignedDiGraph

        with pytest.raises(EmptyInfectionError, match="no nodes"):
            client.detect(SignedDiGraph())

    def test_unknown_route_is_404(self, served):
        client, _ = served
        with pytest.raises(ServeClientError) as info:
            client._request("GET", "/v2/detect")
        assert info.value.status == 404

    def test_bad_schema_tag_is_400(self, served):
        client, _ = served
        import http.client
        import json as _json

        conn = http.client.HTTPConnection(client.host, client.port, timeout=30)
        try:
            conn.request(
                "POST", "/v1/detect", body=_json.dumps({"schema": "nope"}).encode()
            )
            response = conn.getresponse()
            body = _json.loads(response.read())
            assert response.status == 400
            assert body["error"]["type"] == "WireFormatError"
        finally:
            conn.close()

    def test_over_deep_body_maps_to_400(self, served):
        client, _ = served
        import http.client

        # Nested past the recursion limit, far below the body cap.
        raw = b'{"schema": "repro.serve/v1", "graph": ' + b"[" * 50_000 + b"]" * 50_000 + b"}"
        conn = http.client.HTTPConnection(client.host, client.port, timeout=30)
        try:
            conn.request("POST", "/v1/detect", body=raw)
            response = conn.getresponse()
            envelope = json.loads(response.read())
            assert response.status == 400
            assert envelope["error"]["type"] == "WireFormatError"
        finally:
            conn.close()

    def test_coerced_delta_values_map_to_400(self, served):
        # A sign of 1.9 and a weight of "0.5" are refused, not applied as
        # a +1 link of weight 0.5.
        client, handle = served
        snapshot, _ = synthetic_stream(components=2, size=6, deltas=1, seed=4)
        name = f"strict-{handle.server.config.workers}"
        with client.open_session(name, snapshot):
            delta = {"add_edges": [[["i", 10_000], ["i", 10_001], 1.9, "0.5"]]}
            status, envelope = post_raw(
                client, f"/v1/sessions/{name}/delta", {"delta": delta}
            )
            assert status == 400
            assert envelope["error"]["type"] == "WireFormatError"
            assert client.session_info(name)["nodes"] == snapshot.number_of_nodes()

    def test_zero_evaluate_trials_maps_to_400(self, served):
        client, _ = served
        import http.client
        import json as _json

        body = {
            "schema": "repro.serve/v1",
            "workload": {"dataset": "epinions", "scale": 0.004, "seed": 3},
            "trials": 0,
        }
        conn = http.client.HTTPConnection(client.host, client.port, timeout=30)
        try:
            conn.request("POST", "/v1/evaluate", body=_json.dumps(body).encode())
            response = conn.getresponse()
            envelope = _json.loads(response.read())
            assert response.status == 400
            assert envelope["error"]["type"] == "ConfigError"
            assert "trials" in envelope["error"]["message"]
        finally:
            conn.close()

    def test_negative_simulate_trials_maps_to_400(self, served, network):
        from repro.codec import encode_graph

        client, _ = served
        body = {
            "graph": encode_graph(network),
            "seeds": [[["i", 0], 1]],
            "trials": -3,
        }
        status, envelope = post_raw(client, "/v1/simulate", body)
        assert status == 400
        assert envelope["error"]["type"] == "ConfigError"
        assert "trials must be >= 1, got -3" in envelope["error"]["message"]

    def test_simulate_param_past_float_range_maps_to_400(self, served, network):
        from repro.codec import encode_graph

        client, _ = served
        body = {
            "graph": encode_graph(network),
            "seeds": [[["i", 0], 1]],
            "params": {"alpha": 10**400},
        }
        status, envelope = post_raw(client, "/v1/simulate", body)
        assert status == 400
        assert envelope["error"]["type"] == "InvalidModelParameterError"

    @pytest.fixture(scope="class")
    def triangle(self):
        from repro.graphs.signed_digraph import SignedDiGraph

        graph = SignedDiGraph()
        graph.add_edge(0, 1, 1, 0.5)
        graph.add_edge(1, 2, 1, 0.5)
        graph.add_edge(2, 0, -1, 0.5)
        return graph

    @pytest.mark.parametrize(
        "model, params, field",
        [
            ("voter", {"rounds": MAX_SERVED_ROUNDS + 1}, "rounds"),
            (
                "sir",
                {"max_rounds": MAX_SERVED_ROUNDS + 1, "recovery_probability": 0},
                "max_rounds",
            ),
        ],
    )
    def test_simulate_rounds_past_the_limit_map_to_400(
        self, served, triangle, model, params, field
    ):
        from repro.codec import encode_graph

        client, _ = served
        body = {
            "graph": encode_graph(triangle),
            "seeds": [[["i", 0], 1]],
            "model": model,
            "params": params,
        }
        status, envelope = post_raw(client, "/v1/simulate", body)
        assert status == 400
        assert envelope["error"]["type"] == "ConfigError"
        message = envelope["error"]["message"]
        assert field in message and str(MAX_SERVED_ROUNDS) in message

    @pytest.mark.parametrize(
        "model, params",
        [
            ("voter", {"rounds": 2.5}),
            ("sir", {"max_rounds": 2.5}),
            ("mfc", {"max_rounds": 2.5}),
            ("mfc", {"max_rounds": True}),
        ],
    )
    def test_simulate_non_int_round_cap_maps_to_400(
        self, served, triangle, model, params
    ):
        from repro.codec import encode_graph

        client, _ = served
        body = {
            "graph": encode_graph(triangle),
            "seeds": [[["i", 0], 1]],
            "model": model,
            "params": params,
        }
        status, envelope = post_raw(client, "/v1/simulate", body)
        assert status == 400
        assert envelope["error"]["type"] == "InvalidModelParameterError"
        assert "must be an int" in envelope["error"]["message"]

    @pytest.mark.parametrize(
        "route, body, message",
        [
            (
                "/v1/simulate",
                {"graph": "triangle", "seeds": [[["i", 0], 1]], "trials": MAX_SERVED_TRIALS + 1},
                f"trials must be <= {MAX_SERVED_TRIALS}",
            ),
            (
                "/v1/evaluate",
                {
                    "workload": {"scale": 0.001},
                    "detector": "distance_center",
                    "trials": MAX_SERVED_TRIALS + 1,
                },
                f"trials must be <= {MAX_SERVED_TRIALS}",
            ),
            (
                "/v1/detect",
                {
                    "graph": "triangle",
                    "detector": "k_effectors",
                    "config": {"trials": MAX_SERVED_TRIALS + 1},
                },
                f"k_effectors config trials must be <= {MAX_SERVED_TRIALS}",
            ),
            (
                "/v1/evaluate",
                {
                    "workload": {"scale": 0.001},
                    "detector": "simulation_matching",
                    "config": {"trials": MAX_SERVED_TRIALS + 1},
                    "trials": 1,
                },
                f"simulation_matching config trials must be <= {MAX_SERVED_TRIALS}",
            ),
            (
                "/v1/sessions",
                {
                    "session": "over-limit",
                    "graph": "triangle",
                    "detector": "map_suspect",
                    "config": {"trials": MAX_SERVED_TRIALS + 1},
                },
                f"map_suspect config trials must be <= {MAX_SERVED_TRIALS}",
            ),
            (
                "/v1/evaluate",
                {"workload": {"scale": 0.051}, "trials": 1},
                f"scale must be in (0, {MAX_SERVED_SCALE}]",
            ),
            (
                "/v1/evaluate",
                {"workload": {"scale": float("nan")}, "trials": 1},
                f"scale must be in (0, {MAX_SERVED_SCALE}]",
            ),
        ],
        ids=[
            "simulate-trials",
            "evaluate-trials",
            "detect-config-trials",
            "evaluate-config-trials",
            "session-config-trials",
            "evaluate-scale",
            "evaluate-scale-nan",
        ],
    )
    def test_work_past_the_served_limits_maps_to_400(
        self, served, triangle, route, body, message
    ):
        # A 504 cannot stop a computation a worker has claimed, so one
        # small body must not be able to ask for unbounded work.
        from repro.codec import encode_graph

        client, _ = served
        if body.get("graph") == "triangle":
            body = dict(body, graph=encode_graph(triangle))
        status, envelope = post_raw(client, route, body)
        assert status == 400
        assert envelope["error"]["type"] == "ConfigError"
        assert message in envelope["error"]["message"]

    @pytest.mark.parametrize("route", ["/v1/simulate", "/v1/detect"])
    def test_trials_at_the_limit_are_served(self, served, triangle, route):
        from repro.codec import encode_graph

        client, _ = served
        if route == "/v1/simulate":
            body = {"seeds": [[["i", 0], 1]], "trials": MAX_SERVED_TRIALS, "rng": 1}
            direct = repro.simulate(
                triangle, {0: NodeState.POSITIVE}, trials=MAX_SERVED_TRIALS, rng=1
            )
            key, want, graph = "results", [r.to_json() for r in direct], triangle
        else:
            graph = triangle.copy()
            graph.set_states({0: NodeState.POSITIVE, 1: NodeState.POSITIVE, 2: NodeState.NEGATIVE})
            config = {"trials": MAX_SERVED_TRIALS}
            body = {"detector": "k_effectors", "config": config}
            direct = repro.detect(graph, detector="k_effectors", config=config)
            key, want = "result", direct.to_json()
        status, envelope = post_raw(client, route, dict(body, graph=encode_graph(graph)))
        assert status == 200
        assert canonical(envelope[key]) == canonical(want)

    def test_simulate_rounds_at_the_limit_are_served(self, served, triangle):
        client, _ = served
        seeds = {0: NodeState.POSITIVE}
        params = {"max_rounds": MAX_SERVED_ROUNDS, "recovery_probability": 0}
        remote = client.simulate(triangle, seeds, model="sir", params=params, rng=1)
        direct = repro.simulate(triangle, seeds, model=SIRModel(**params), rng=1)
        assert remote.events == direct.events
        assert remote.rounds == MAX_SERVED_ROUNDS

    @pytest.mark.parametrize(
        "detector, config",
        [
            ("rid", {"beta": "x"}),
            ("rid", {"alpha": None}),
            ("rid", {"score": 3}),
            ("map_suspect", {"trials": "x"}),
            ("k_effectors", {"trials": 1.5}),
        ],
    )
    def test_wrong_typed_detector_config_maps_to_400(
        self, served, infected, detector, config
    ):
        from repro.codec import encode_graph

        client, _ = served
        body = {"graph": encode_graph(infected), "detector": detector, "config": config}
        status, envelope = post_raw(client, "/v1/detect", body)
        assert status == 400
        assert envelope["error"]["type"] == "ConfigError"
        assert "must be" in envelope["error"]["message"]

    @pytest.mark.parametrize("field", ["alpha", "beta"])
    @pytest.mark.parametrize("token", ["NaN", "Infinity"])
    def test_non_finite_rid_config_maps_to_400(self, served, infected, field, token):
        from repro.codec import encode_graph

        client, _ = served
        config = {field: float(token)}
        assert json.dumps(config) == f'{{"{field}": {token}}}'  # the bare JSON token
        body = {"graph": encode_graph(infected), "detector": "rid", "config": config}
        status, envelope = post_raw(client, "/v1/detect", body)
        assert status == 400
        assert envelope["error"]["type"] == "ConfigError"
        assert f"{field} must be finite" in envelope["error"]["message"]

    def test_wrong_typed_workload_maps_to_400(self, served):
        client, _ = served
        body = {"workload": {"dataset": "epinions", "scale": "x"}, "trials": 1}
        status, envelope = post_raw(client, "/v1/evaluate", body)
        assert status == 400
        assert envelope["error"]["type"] == "ConfigError"
        assert "WorkloadConfig.scale must be float" in envelope["error"]["message"]


class TestOpsEndpoints:
    def test_health_and_stats(self, served):
        client, handle = served
        health = client.health()
        assert health["status"] == "ok"
        assert health["workers"] == handle.server.config.workers
        stats = client.stats()
        assert stats["metrics"]["counters"]["serve.requests"] >= 1
        assert "serve.queue_wait" in stats["metrics"]["timers"]
        assert stats["inflight"] == 0


class TestGracefulShutdown:
    def test_stop_drains_and_reports_metrics(self, infected):
        with start_in_thread(ServeConfig(workers=1, timeout=60.0)) as handle:
            with ServeClient(handle.url) as client:
                client.detect(infected)
            handle.stop()
            snapshot = handle.metrics()
            assert snapshot.counters["serve.requests"] == 1.0
        # double-stop is a no-op (the context exit above)


class TestNamedDetectorIdentity:
    """Served named-detector responses must be bit-identical to direct
    in-process calls — at workers=1 and workers=2 (fixture params)."""

    @pytest.mark.parametrize(
        "name",
        [
            "rumor_centrality",
            "jordan_center",
            "distance_center",
            "multi_source",
            "certainty_cover",
            "simulation_matching",
            "rid_tree",
            "rid_positive",
        ],
    )
    def test_served_named_detect_is_bit_identical(self, served, infected, name):
        from repro.detectors import resolve_detector

        client, _ = served
        direct = resolve_detector(name).detect(infected)
        payload = client.detect(infected, detector=name, raw=True)
        assert payload["detector"] == name
        assert canonical(payload["result"]) == canonical(direct.to_json())

    def test_config_travels_with_named_detector(self, served, infected):
        from repro.detectors import resolve_detector

        client, _ = served
        config = {"trials": 2, "candidate_limit": 4}
        direct = resolve_detector("map_suspect", dict(config)).detect(infected)
        payload = client.detect(
            infected, detector="map_suspect", config=config, raw=True
        )
        assert canonical(payload["result"]) == canonical(direct.to_json())

    def test_tier_routing_follows_the_policy(self, served, infected):
        from repro.detectors import resolve_detector
        from repro.detectors.registry import TIER_ROUTING

        client, _ = served
        fast = client.detect(infected, tier="fast", raw=True)
        assert fast["detector"] == TIER_ROUTING["fast"]
        direct_fast = resolve_detector(TIER_ROUTING["fast"]).detect(infected)
        assert canonical(fast["result"]) == canonical(direct_fast.to_json())
        accurate = client.detect(infected, tier="accurate", raw=True)
        assert accurate["detector"] == TIER_ROUTING["accurate"]
        assert canonical(accurate["result"]) == canonical(
            repro.detect(infected).to_json()
        )

    def test_detector_and_tier_conflict_maps_to_400(self, served, infected):
        client, _ = served
        with pytest.raises(ConfigError, match="mutually exclusive"):
            client.detect(infected, detector="rid", tier="fast")

    def test_unknown_detector_maps_to_400(self, served, infected):
        client, _ = served
        with pytest.raises(ConfigError, match="unknown detector"):
            client.detect(infected, detector="louvain")

    def test_named_evaluate_round_trips(self, served):
        client, _ = served
        payload = client.evaluate(
            {"dataset": "epinions", "scale": 0.004, "seed": 3},
            trials=2,
            detector="distance_center",
        )
        assert payload["detector"] == "distance_center"
        scores = payload["evaluation"]
        assert scores["method"] == "distance-center"
        assert 0.0 <= scores["f1"] <= 1.0

    def test_named_session_matches_local_engine(self, served):
        from repro.detectors import resolve_detector

        client, _ = served
        snapshot, deltas = synthetic_stream(components=3, size=8, deltas=4, seed=21)
        local = StreamingDetectionEngine(snapshot, detector="jordan_center")
        with client.open_session(
            "named-identity", snapshot, detector="jordan_center"
        ) as session:
            assert session.info["detector"] == "jordan_center"
            for delta in deltas:
                remote = session.delta(delta)
                local_step = local.step(delta)
                assert canonical(remote["result"]) == canonical(
                    local_step.result.to_json()
                )
