"""Tests for the exception hierarchy and error ergonomics."""

import pytest

from repro import errors


class TestHierarchy:
    def test_everything_derives_from_repro_error(self):
        for name in errors.__all__:
            if name == "ReproError":
                continue
            exc = getattr(errors, name)
            assert issubclass(exc, errors.ReproError), name

    def test_datalog_family(self):
        for name in ("ParseError", "StratificationError", "EvaluationError"):
            assert issubclass(getattr(errors, name), errors.DatalogError)

    def test_graph_family(self):
        assert issubclass(errors.RecursionLimitError, errors.GraphError)

    def test_strategy_family(self):
        assert issubclass(errors.IllegalStrategyError, errors.StrategyError)

    def test_learning_family(self):
        assert issubclass(errors.SampleBudgetExceeded, errors.LearningError)

    def test_catching_base_catches_all(self):
        with pytest.raises(errors.ReproError):
            raise errors.IllegalStrategyError("nope")


class TestParseErrorLocation:
    def test_location_in_message(self):
        error = errors.ParseError("bad token", line=3, column=7)
        assert "line 3" in str(error)
        assert "column 7" in str(error)
        assert error.line == 3 and error.column == 7

    def test_line_only(self):
        error = errors.ParseError("bad token", line=2)
        assert "line 2" in str(error) and "column" not in str(error)

    def test_no_location(self):
        error = errors.ParseError("bad token")
        assert str(error) == "bad token"

    def test_real_parse_error_carries_location(self):
        from repro.datalog.parser import parse_program

        with pytest.raises(errors.ParseError) as info:
            parse_program("p(a).\nq(&).")
        assert info.value.line == 2
