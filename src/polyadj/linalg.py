"""Exact Gaussian elimination over the rationals.

Small dense systems only.  Entries may be ints or Fractions; rows are
scaled to integers and eliminated fraction-free (Bareiss, Math. Comp.
1968), building Fractions only for the answer.  Pivots are chosen
deterministically (first nonzero entry in index order), and the reduced
row echelon form is unique, so repeated runs produce identical output.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence


def integer_row(entries: Sequence) -> tuple[list[int], int]:
    """Scale int and Fraction entries to integers by the lcm c of their
    denominators; return the scaled entries and c."""
    c = lcm(*{x.denominator for x in entries})
    return [x.numerator * (c // x.denominator) for x in entries], c


def _echelon(rows: list[list[int]], width: int) -> list[int]:
    """Reduce integer rows in place to a scaled reduced row echelon form;
    return the pivot column of each used row (entries past `width` ride
    along as an augment).  Row r is a nonzero multiple of row r of the
    reduced form, with rows[r][pivot_cols[r]] as the factor."""
    pivot_cols: list[int] = []
    den = 1
    r = 0
    for c in range(width):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        prow = rows[r]
        p = prow[c]
        for i in range(len(rows)):
            if i != r:
                f = rows[i][c]
                rows[i] = [(p * a - f * b) // den for a, b in zip(rows[i], prow)]
        den = p
        pivot_cols.append(c)
        r += 1
        if r == len(rows):
            break
    return pivot_cols


def gauss_solve(
    matrix: Sequence[Sequence], rhs: Sequence
) -> tuple[list[Fraction] | None, bool]:
    """Solve matrix . z = rhs exactly.

    Returns (None, False) when inconsistent, otherwise (solution, unique)
    where free variables, if any, are set to zero.
    """
    m = len(matrix)
    ncols = len(matrix[0]) if m else 0
    rows = [integer_row([*row, rhs[i]])[0] for i, row in enumerate(matrix)]
    pivot_cols = _echelon(rows, ncols)
    for i in range(len(pivot_cols), m):
        if rows[i][ncols] != 0:
            return None, False
    sol = [Fraction(0)] * ncols
    for r, c in enumerate(pivot_cols):
        sol[c] = Fraction(rows[r][ncols], rows[r][c])
    return sol, len(pivot_cols) == ncols


def kernel_vector(matrix: Sequence[Sequence]) -> list[Fraction] | None:
    """A nontrivial kernel vector of the matrix, or None at full column rank.

    Deterministic: the first non-pivot column is set to one and the rest
    of the free columns to zero.
    """
    m = len(matrix)
    ncols = len(matrix[0]) if m else 0
    rows = [integer_row(row)[0] for row in matrix]
    pivot_cols = _echelon(rows, ncols)
    pivots = set(pivot_cols)
    free = next((c for c in range(ncols) if c not in pivots), None)
    if free is None:
        return None
    z = [Fraction(0)] * ncols
    z[free] = Fraction(1)
    # Rows are fully reduced, so each pivot variable reads off directly.
    for r, c in enumerate(pivot_cols):
        z[c] = Fraction(-rows[r][free], rows[r][c])
    return z


def affine_dependency(points: Sequence[Sequence[int]]) -> list[Fraction] | None:
    """Coefficients mu with sum(mu) = 0 and sum(mu_i * p_i) = 0, not all
    zero, or None when the points are affinely independent."""
    if not points:
        return None
    d = len(points[0])
    matrix = [[p[r] for p in points] for r in range(d)]
    matrix.append([1] * len(points))
    return kernel_vector(matrix)
