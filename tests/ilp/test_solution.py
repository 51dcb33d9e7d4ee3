"""Unit tests for Solution / SolveStatus."""

import pytest

# repro.ilp needs the optional "ilp" extra (numpy and scipy).
pytest.importorskip("numpy")
pytest.importorskip("scipy")

from repro.ilp.model import Model
from repro.ilp.solution import Solution, SolveStatus


def _model():
    model = Model("m")
    x = model.add_binary("x")
    y = model.add_binary("y")
    model.add_constraint(x + y, "<=", 1)
    model.minimize(-x)
    return model


def test_is_feasible():
    assert Solution(SolveStatus.OPTIMAL, -1.0, {"x": 1.0}).is_feasible
    assert Solution(SolveStatus.FEASIBLE, -1.0, {"x": 1.0}).is_feasible
    assert not Solution(SolveStatus.INFEASIBLE, None).is_feasible
    assert not Solution(SolveStatus.NO_SOLUTION, None).is_feasible


def test_value_accessor():
    model = _model()
    x = model.variable_by_name("x")
    solution = Solution(SolveStatus.OPTIMAL, -1.0, {"x": 1.0, "y": 0.0})
    assert solution.value(x) == 1.0


def test_check_feasibility_accepts_valid():
    solution = Solution(SolveStatus.OPTIMAL, -1.0, {"x": 1.0, "y": 0.0})
    assert solution.check_feasibility(_model())


def test_check_feasibility_rejects_constraint_violation():
    solution = Solution(SolveStatus.OPTIMAL, -2.0, {"x": 1.0, "y": 1.0})
    assert not solution.check_feasibility(_model())


def test_check_feasibility_rejects_bound_violation():
    solution = Solution(SolveStatus.OPTIMAL, -2.0, {"x": 2.0, "y": -1.0})
    assert not solution.check_feasibility(_model())


def test_check_feasibility_rejects_fractional_integer():
    solution = Solution(SolveStatus.OPTIMAL, -0.5, {"x": 0.5, "y": 0.0})
    assert not solution.check_feasibility(_model())


def test_check_feasibility_infeasible_status():
    solution = Solution(SolveStatus.INFEASIBLE, None)
    assert not solution.check_feasibility(_model())
