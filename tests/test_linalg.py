from fractions import Fraction

import fraction_reference
from hypothesis import given
from hypothesis import strategies as st

from polyadj.linalg import affine_dependency, gauss_solve, kernel_vector


def test_gauss_unique():
    sol, unique = gauss_solve([[1, 1], [1, -1]], [3, 1])
    assert unique
    assert sol == [Fraction(2), Fraction(1)]


def test_gauss_inconsistent():
    sol, unique = gauss_solve([[1, 1], [2, 2]], [1, 3])
    assert sol is None


def test_gauss_underdetermined():
    sol, unique = gauss_solve([[1, 1, 0]], [1])
    assert not unique
    assert sol is not None
    assert sum(sol[:2]) == 1


def test_kernel_vector():
    k = kernel_vector([[1, 1, -2]])
    assert k is not None
    assert sum(c * v for c, v in zip([1, 1, -2], k)) == 0
    assert any(v != 0 for v in k)


def test_kernel_of_full_rank_square():
    assert kernel_vector([[1, 0], [0, 1]]) is None


def test_affine_dependency_of_four_planar_points():
    points = [(0, 0), (0, 1), (1, 0), (1, 1)]
    mu = affine_dependency(points)
    assert mu is not None
    assert sum(mu) == 0
    for k in range(2):
        assert sum(m * p[k] for m, p in zip(mu, points)) == 0
    assert any(m != 0 for m in mu)


def test_affinely_independent_points_have_no_dependency():
    assert affine_dependency([(0, 0), (0, 1), (1, 0)]) is None


@given(st.integers(min_value=1, max_value=4), st.data())
def test_gauss_reproduces_planted(n, data):
    entry = st.integers(min_value=-3, max_value=3)
    rows = [[data.draw(entry) for _ in range(n)] for _ in range(n)]
    planted = [data.draw(st.integers(min_value=-2, max_value=2)) for _ in range(n)]
    rhs = [sum(c * w for c, w in zip(row, planted)) for row in rows]
    sol, unique = gauss_solve(rows, rhs)
    assert sol is not None
    for row, b in zip(rows, rhs):
        assert sum(c * w for c, w in zip(row, sol)) == b


_ENTRY = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=5),
    st.data(),
)
def test_matches_fraction_reference(m, n, data):
    rows = [[data.draw(_ENTRY) for _ in range(n)] for _ in range(m)]
    if data.draw(st.booleans()):
        # A repeated row makes the system rank-deficient, and a shifted
        # right-hand side on it makes the system inconsistent.
        i = data.draw(st.integers(min_value=0, max_value=m - 1))
        rows.append([2 * c for c in rows[i]])
    rhs = [data.draw(_ENTRY) for _ in rows]
    assert gauss_solve(rows, rhs) == fraction_reference.gauss_solve(rows, rhs)
    assert kernel_vector(rows) == fraction_reference.kernel_vector(rows)
