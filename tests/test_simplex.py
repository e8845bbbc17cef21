from fractions import Fraction

import fraction_reference
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyadj.errors import Defect
from polyadj.simplex import feasible_point


def _check(rows, rhs, sol):
    assert sol is not None
    assert all(w >= 0 for w in sol)
    for row, b in zip(rows, rhs):
        assert sum(c * w for c, w in zip(row, sol)) == b


def test_simple_system():
    rows = [[1, 1], [1, -1]]
    rhs = [1, 1]
    _check(rows, rhs, feasible_point(rows, rhs))


def test_infeasible_contradiction():
    rows = [[1], [1]]
    rhs = [1, 2]
    assert feasible_point(rows, rhs) is None


def test_infeasible_negative_sum():
    # x + y = -1 has no nonnegative solution.
    assert feasible_point([[1, 1]], [-1]) is None


def test_negative_rhs_normalization():
    # -x - y = -1 is x + y = 1.
    sol = feasible_point([[-1, -1]], [-1])
    _check([[-1, -1]], [-1], sol)


def test_redundant_rows():
    rows = [[1, 1], [2, 2]]
    rhs = [1, 2]
    _check(rows, rhs, feasible_point(rows, rhs))


def test_fractional_solution():
    rows = [[2, 0], [0, 3]]
    rhs = [1, 1]
    sol = feasible_point(rows, rhs)
    assert sol == [Fraction(1, 2), Fraction(1, 3)]


def test_deterministic():
    rows = [[1, 1, 0], [0, 1, 1]]
    rhs = [1, 1]
    assert feasible_point(rows, rhs) == feasible_point(rows, rhs)


@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=5),
    st.data(),
)
def test_planted_solutions_are_found(m, n, data):
    coeff = st.integers(min_value=-3, max_value=3)
    rows = [[data.draw(coeff) for _ in range(n)] for _ in range(m)]
    planted = [data.draw(st.integers(min_value=0, max_value=3)) for _ in range(n)]
    rhs = [sum(c * w for c, w in zip(row, planted)) for row in rows]
    sol = feasible_point(rows, rhs)
    _check(rows, rhs, sol)


def test_conflicting_sum_rows():
    for n in range(1, 5):
        rows = [[1] * n, [1] * n]
        rhs = [1, 2]
        assert feasible_point(rows, rhs) is None


def test_pivot_budget_exhausted(monkeypatch):
    monkeypatch.setattr("polyadj.simplex.MAX_PIVOTS", 0)
    with pytest.raises(Defect, match="pivot budget exhausted"):
        feasible_point([[1, 1]], [1])


def test_no_rows_is_a_defect():
    with pytest.raises(Defect, match="no rows"):
        feasible_point([], [])


_ENTRY = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


@st.composite
def _systems(draw):
    """Small systems with int and Fraction entries; some rows repeat an
    earlier row times a scalar, some contradict one, and the right-hand
    side is either planted from a nonnegative point or drawn freely."""
    m = draw(st.integers(min_value=1, max_value=5))
    n = draw(st.integers(min_value=1, max_value=6))
    rows = [[draw(_ENTRY) for _ in range(n)] for _ in range(m)]
    if draw(st.booleans()):
        planted = [draw(st.fractions(min_value=0, max_value=2, max_denominator=3)) for _ in range(n)]
        rhs = [sum(c * w for c, w in zip(row, planted)) for row in rows]
    else:
        rhs = [draw(_ENTRY) for _ in range(m)]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        i = draw(st.integers(min_value=0, max_value=len(rows) - 1))
        k = draw(st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-3, 2)]))
        shift = draw(st.sampled_from([0, 0, 1, Fraction(-1, 3)]))
        rows.append([k * c for c in rows[i]])
        rhs.append(k * rhs[i] + shift)
    return rows, rhs


@settings(max_examples=200)
@given(_systems())
# Row scaling must not change the phase-1 reduced-cost signs.
@example(([[1, 1, 2], [Fraction(-2, 3), Fraction(-1, 3), 1]], [1, 0]))
# Ratio ties leave on the smallest basic variable.
@example(([[1, 1, 2, -2], [-2, 1, 0, -1], [1, Fraction(1, 2), 2, -1]], [1, 1, 2]))
# A pivot equal to a denominator above one still divides by it.
@example(([[-1, 1, Fraction(-3, 2)], [2, -2, 2]], [-1, 1]))
def test_matches_fraction_reference(system):
    rows, rhs = system
    assert feasible_point(rows, rhs) == fraction_reference.feasible_point(rows, rhs)
