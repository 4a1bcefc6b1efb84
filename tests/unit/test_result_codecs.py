"""Round-trip tests for the stable result codecs.

``DetectionResult.to_json``/``from_json`` and
``DiffusionResult.to_json``/``from_json`` are the single encoding shared
by the CLI artefact writers and the ``repro.serve/v1`` wire schema, so
these tests pin (a) lossless round-trips, (b) deterministic encoding
(same result → same JSON), and (c) loud failures on malformed payloads.
"""

import json

import pytest

from repro.detectors import DetectionResult
from repro.diffusion.base import DiffusionResult
from repro.diffusion.mfc import MFCModel
from repro.errors import ResultFormatError
from repro.graphs.generators.random_graphs import signed_erdos_renyi
from repro.graphs.signed_digraph import SignedDiGraph
from repro.types import NodeState


@pytest.fixture(scope="module")
def network():
    return signed_erdos_renyi(
        40, 0.1, positive_probability=0.8, weight_range=(0.2, 0.7), rng=3
    )


@pytest.fixture(scope="module")
def cascade(network):
    return MFCModel(alpha=3.0).run(
        network, {0: NodeState.POSITIVE, 3: NodeState.NEGATIVE}, rng=5
    )


def graphs_equal(a: SignedDiGraph, b: SignedDiGraph) -> bool:
    if set(a.nodes()) != set(b.nodes()):
        return False
    if any(a.state(n) != b.state(n) for n in a.nodes()):
        return False
    edges_a = {(u, v): (int(d.sign), d.weight) for u, v, d in a.iter_edges()}
    edges_b = {(u, v): (int(d.sign), d.weight) for u, v, d in b.iter_edges()}
    return edges_a == edges_b


#: A well-formed payload the malformed cases below each break in one field.
VALID_DETECTION = {
    "format": DetectionResult.JSON_FORMAT,
    "method": "rid",
    "initiators": [["i", 1]],
    "states": [[["i", 1], 1]],
    "trees": [{"name": "", "nodes": [[["i", 1], 1]], "edges": []}],
    "objective": 1.5,
}
VALID_DIFFUSION = {
    "format": DiffusionResult.JSON_FORMAT,
    "seeds": [[["i", 1], 1]],
    "final_states": [[["i", 1], 1], [["s", "b"], -1]],
    "events": [[0, None, ["i", 1], 1, False], [1, ["i", 1], ["s", "b"], -1, True]],
    "rounds": 1,
}


class TestDetectionResultCodec:
    def detection_result(self, network, cascade) -> DetectionResult:
        import repro

        return repro.detect(network, cascade)

    def test_round_trip_is_lossless(self, network, cascade):
        result = self.detection_result(network, cascade)
        decoded = DetectionResult.from_json(result.to_json())
        assert decoded.method == result.method
        assert decoded.initiators == result.initiators
        assert decoded.states == result.states
        assert decoded.objective == result.objective
        assert len(decoded.trees) == len(result.trees)
        for mine, theirs in zip(decoded.trees, result.trees):
            assert graphs_equal(mine, theirs)

    def test_encoding_is_deterministic(self, network, cascade):
        result = self.detection_result(network, cascade)
        blob_a = json.dumps(result.to_json(), sort_keys=True)
        blob_b = json.dumps(result.to_json(), sort_keys=True)
        assert blob_a == blob_b

    def test_payload_is_plain_json(self, network, cascade):
        payload = self.detection_result(network, cascade).to_json()
        assert payload["format"] == DetectionResult.JSON_FORMAT
        json.loads(json.dumps(payload))  # no repr()-only values anywhere

    def test_mixed_node_types_round_trip(self):
        tree = SignedDiGraph(name="t")
        tree.add_edge("a", 2, 1, 0.5)
        tree.set_states({"a": NodeState.POSITIVE, 2: NodeState.POSITIVE})
        result = DetectionResult(
            method="rid(beta=0.1)",
            initiators={"a", 2},
            states={"a": NodeState.POSITIVE, 2: NodeState.NEGATIVE},
            trees=[tree],
            objective=-1.25,
        )
        decoded = DetectionResult.from_json(result.to_json())
        assert decoded.initiators == {"a", 2}
        assert decoded.states == result.states
        assert graphs_equal(decoded.trees[0], tree)
        assert decoded.objective == -1.25

    def test_none_objective_survives(self):
        result = DetectionResult(method="rid-tree", initiators={1})
        assert DetectionResult.from_json(result.to_json()).objective is None

    @pytest.mark.parametrize(
        "payload",
        [
            "not a dict",
            {},
            {"format": "something/else"},
            {"format": DetectionResult.JSON_FORMAT},  # fields missing
            {
                "format": DetectionResult.JSON_FORMAT,
                "method": "rid",
                "initiators": [["i", 1]],
                "states": [[["i", 1], 9]],  # 9 is not a NodeState
                "trees": [],
                "objective": None,
            },
            {
                "format": DetectionResult.JSON_FORMAT,
                "method": "rid",
                "initiators": [["i", "1"]],  # a string under the int typecode
                "states": [[["i", 1], 1]],
                "trees": [],
                "objective": None,
            },
        ]
        # Fields of the wrong JSON type are rejected, never coerced.
        + [
            dict(VALID_DETECTION, **fields)
            for fields in (
                {"trees": [[1]]},  # a tree that is an array, not an object
                {"objective": "1.5"},
                {"objective": True},
                {"objective": 10**400},
                {"method": 7},
                {"states": [[["i", 1], True]]},
                {"initiators": {}},
                # A graph listing a node twice, an edge whose endpoint is
                # not a node, and an edge listed twice.
                {"trees": [{"nodes": [[["i", 1], 1], [["i", 1], 1]], "edges": []}]},
                {"trees": [{"nodes": [[["i", 1], 1]], "edges": [[["i", 1], ["i", 2], 1, 0.5]]}]},
                {
                    "trees": [
                        {
                            "nodes": [[["i", 1], 1], [["i", 2], 1]],
                            "edges": [[["i", 1], ["i", 2], 1, 0.5], [["i", 1], ["i", 2], 1, 0.5]],
                        }
                    ]
                },
            )
        ],
    )
    def test_malformed_payloads_raise(self, payload):
        with pytest.raises(ResultFormatError):
            DetectionResult.from_json(payload)

    def test_valid_template_decodes(self):
        assert DetectionResult.from_json(VALID_DETECTION).initiators == {1}


class TestDiffusionResultCodec:
    def test_round_trip_is_lossless(self, cascade):
        decoded = DiffusionResult.from_json(cascade.to_json())
        assert decoded.seeds == cascade.seeds
        assert decoded.final_states == cascade.final_states
        assert decoded.events == cascade.events
        assert decoded.rounds == cascade.rounds

    def test_payload_is_plain_json(self, cascade):
        payload = cascade.to_json()
        assert payload["format"] == DiffusionResult.JSON_FORMAT
        json.loads(json.dumps(payload))

    @pytest.mark.parametrize(
        "payload",
        ["nope", {}, {"format": "repro.detection-result/v1"}, {"format": None}]
        # Fields of the wrong JSON type are rejected, never coerced.
        + [
            dict(VALID_DIFFUSION, **fields)
            for fields in (
                {"rounds": "3"},
                {"rounds": True},
                {"rounds": -1},
                {"events": [[0, None, ["i", 1], 1, "yes"]]},
                {"events": [["0", None, ["i", 1], 1, False]]},
                {"events": [[0, None, ["i", 1], 1.0, False]]},
                {"events": [[0, None, ["i", 1], 1]]},
                {"events": {}},
                {"seeds": [[["i", 1], True]]},
            )
        ],
    )
    def test_malformed_payloads_raise(self, payload):
        with pytest.raises(ResultFormatError):
            DiffusionResult.from_json(payload)

    def test_valid_template_decodes(self):
        decoded = DiffusionResult.from_json(VALID_DIFFUSION)
        assert decoded.to_json() == VALID_DIFFUSION

    def test_missing_fields_raise(self):
        with pytest.raises(ResultFormatError, match="malformed"):
            DiffusionResult.from_json({"format": DiffusionResult.JSON_FORMAT})
