import math

import pytest

from surmoo.stopping import StopExpression


class TestParsing:
    def test_simple_comparison(self):
        assert StopExpression("iteration > 3").evaluate(5, {})

    def test_paper_style_expression_parses(self):
        StopExpression("iteration > 3 and max(recent('ecov', 3)) < 0.1")

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown name"):
            StopExpression("epochs > 3")

    def test_attribute_access_rejected(self):
        with pytest.raises(ValueError):
            StopExpression("().__class__")

    def test_imports_rejected(self):
        with pytest.raises(ValueError):
            StopExpression("__import__('os')")

    def test_unknown_call_rejected(self):
        with pytest.raises(ValueError, match="may only call"):
            StopExpression("print(1)")

    def test_unknown_metric_rejected_at_parse_time(self):
        with pytest.raises(ValueError, match="unknown metric"):
            StopExpression("max(recent('bogus', 2)) < 1")

    def test_metric_name_must_be_literal(self):
        with pytest.raises(ValueError, match="literal metric name"):
            StopExpression("max(recent(iteration, 2)) < 1")

    @pytest.mark.parametrize(
        "source", ["len(recent('hv', 'x')) > 0", "'a' < 1", "max(recent('hv', 2)) < 1 or 'q'"]
    )
    def test_string_outside_a_metric_name_rejected(self, source):
        # a string anywhere else meets a comparison, a window or `bool` only
        # when the expression is evaluated, after an epoch of the run
        with pytest.raises(ValueError, match="a string only as recent\\(\\)'s metric name"):
            StopExpression(source)

    @pytest.mark.parametrize("source", ["recent('hv', 2) < 1", "max(1) < 2", "len(iteration) > 0"])
    def test_type_error_rejected_at_parse_time(self, source):
        # a list compared with a number, the max of one number and the length
        # of the counter used to raise TypeError after a run's first epoch
        with pytest.raises(ValueError, match="invalid stop expression"):
            StopExpression(source)

    @pytest.mark.parametrize(
        "source",
        [
            "iteration > 2",
            "iteration > 3",
            "iteration > 3 and max(recent('ecov', 3)) < 0.1",
            "max(recent('hv', 2)) < 0.1",
            "max(recent('hv', 3)) < 0.1",
            "min(recent('hv', 10)) > 0.2",
            "iteration > 1 or max(recent('hv', 1)) > 0.9",
            "max(recent('evals', 1)) >= 100 + 50",
            "max(recent('feasible_count', 1)) >= 20",
            "max(recent('hv', 2)) / min(recent('hv', 2)) < 1.001",
            "len(recent('hv', 1e400)) > 0",
        ],
    )
    def test_expressions_the_other_tests_use_still_parse(self, source):
        StopExpression(source)

    def test_syntax_error_reported(self):
        with pytest.raises(ValueError, match="invalid stop expression"):
            StopExpression("iteration >")


class TestEvaluation:
    def test_iteration_threshold(self):
        expr = StopExpression("iteration > 3")
        assert not expr.evaluate(3, {})
        assert expr.evaluate(5, {})

    def test_recent_window_aggregate(self):
        expr = StopExpression("max(recent('hv', 2)) < 0.1")
        rising = {"hv": [0.0, 0.2, 0.5]}
        assert not expr.evaluate(3, rising)
        flat = {"hv": [0.5, 0.01, 0.02]}
        assert expr.evaluate(3, flat)

    def test_paper_example_semantics(self):
        expr = StopExpression("iteration > 3 and max(recent('ecov', 3)) < 0.1")
        converged = {"ecov": [1.0, 0.9, 0.05, 0.02, 0.01]}
        improving = {"ecov": [1.0, 0.9, 0.5, 0.4, 0.3]}
        assert not expr.evaluate(2, converged)  # guarded by iteration
        assert expr.evaluate(5, converged)
        assert not expr.evaluate(5, improving)

    def test_empty_series_is_nan_safe(self):
        expr = StopExpression("max(recent('hv', 3)) < 0.1")
        assert not expr.evaluate(1, {"hv": []})

    def test_window_shorter_than_requested(self):
        expr = StopExpression("min(recent('hv', 10)) > 0.2")
        assert expr.evaluate(2, {"hv": [0.3, 0.4]})

    def test_boolean_connectives(self):
        expr = StopExpression("iteration > 1 or max(recent('hv', 1)) > 0.9")
        assert expr.evaluate(0, {"hv": [0.95]})
        assert expr.evaluate(2, {"hv": [0.0]})

    def test_arithmetic_allowed(self):
        expr = StopExpression("max(recent('evals', 1)) >= 100 + 50")
        assert expr.evaluate(1, {"evals": [150.0]})
        assert not expr.evaluate(1, {"evals": [149.0]})

    @pytest.mark.parametrize(
        "source, series",
        [
            ("max(recent('hv', 2)) / min(recent('hv', 2)) < 1.001", {"hv": [0.0, 0.0]}),
            ("len(recent('hv', 1e400)) > 0", {"hv": [0.5]}),
        ],
    )
    def test_arithmetic_error_is_not_satisfied(self, source, series):
        # like an empty window's NaN, a division by zero or an overflowing
        # window must not end a run partway through
        assert not StopExpression(source).evaluate(3, series)
