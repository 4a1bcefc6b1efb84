"""Contract tests for the exception hierarchy.

Callers rely on two properties: every library error is a
:class:`ReproError`, and lookup/validation errors double as the matching
builtin (``KeyError`` / ``ValueError``) so idiomatic ``except`` clauses
keep working.
"""

import pytest

from repro import errors
from repro.graphs.signed_digraph import SignedDiGraph


ALL_ERRORS = [
    errors.GraphError,
    errors.NodeNotFoundError,
    errors.EdgeNotFoundError,
    errors.InvalidSignError,
    errors.InvalidWeightError,
    errors.NotATreeError,
    errors.GraphFormatError,
    errors.DiffusionError,
    errors.InvalidSeedError,
    errors.InvalidModelParameterError,
    errors.DetectionError,
    errors.EmptyInfectionError,
    errors.ArborescenceError,
    errors.DynamicProgramError,
    errors.ComplexityError,
    errors.InvalidSetCoverError,
    errors.InfeasibleCoverError,
    errors.ExperimentError,
    errors.ConfigError,
]


class TestHierarchy:
    @pytest.mark.parametrize("error_class", ALL_ERRORS)
    def test_everything_is_a_repro_error(self, error_class):
        assert issubclass(error_class, errors.ReproError)

    def test_lookup_errors_are_key_errors(self):
        assert issubclass(errors.NodeNotFoundError, KeyError)
        assert issubclass(errors.EdgeNotFoundError, KeyError)

    @pytest.mark.parametrize(
        "error_class",
        [
            errors.InvalidSignError,
            errors.InvalidWeightError,
            errors.InvalidSeedError,
            errors.InvalidModelParameterError,
            errors.EmptyInfectionError,
            errors.ConfigError,
            errors.InvalidSetCoverError,
            errors.GraphFormatError,
            errors.NotATreeError,
        ],
    )
    def test_validation_errors_are_value_errors(self, error_class):
        assert issubclass(error_class, ValueError)


class TestErrorPayloads:
    def test_node_not_found_carries_node(self):
        g = SignedDiGraph()
        with pytest.raises(errors.NodeNotFoundError) as excinfo:
            g.state("ghost")
        assert excinfo.value.node == "ghost"
        assert "ghost" in str(excinfo.value)

    def test_edge_not_found_carries_edge(self):
        g = SignedDiGraph()
        g.add_nodes(["a", "b"])
        with pytest.raises(errors.EdgeNotFoundError) as excinfo:
            g.edge("a", "b")
        assert excinfo.value.edge == ("a", "b")

    def test_graph_format_error_line_numbers(self):
        error = errors.GraphFormatError("bad row", line_number=42)
        assert "line 42" in str(error)
        assert error.line_number == 42

    def test_graph_format_error_without_line(self):
        error = errors.GraphFormatError("bad payload")
        assert error.line_number is None

    def test_single_except_clause_catches_all(self):
        g = SignedDiGraph()
        caught = 0
        for action in (
            lambda: g.remove_node("x"),
            lambda: g.edge("x", "y"),
            lambda: g.add_edge("a", "b", 0, 0.5),
            lambda: g.add_edge("a", "b", 1, 2.0),
        ):
            try:
                action()
            except errors.ReproError:
                caught += 1
        assert caught == 4
