"""Reference engines over Fraction arithmetic, kept for differential tests.

These are the dense Fraction tableau simplex and the Fraction
Gauss-Jordan elimination that the fraction-free integer engines in
``polyadj.simplex`` and ``polyadj.linalg`` replaced, and the dense
Fraction affine map that ``polyadj.model.AffineMap`` replaced with
integer coefficients.  The replacements must return the identical
values on every input.
"""

from dataclasses import dataclass
from fractions import Fraction

from polyadj.errors import DimensionMismatch, InputError, InvariantViolation

_ONE = Fraction(1)


def feasible_point(matrix, rhs):
    """Phase-1 simplex with Bland's rule on a dense Fraction tableau."""
    m = len(matrix)
    n = len(matrix[0])
    rows = []
    b = []
    for i in range(m):
        r = list(matrix[i])
        v = rhs[i]
        if v < 0:
            r = [-x for x in r]
            v = -v
        rows.append(r)
        b.append(v)

    basis = [n + i for i in range(m)]
    art_in_basis = m
    obj = [sum(rows[i][j] for i in range(m)) for j in range(n)]

    while art_in_basis:
        enter = next((j for j in range(n) if obj[j] > 0), -1)
        if enter < 0:
            break
        leave = -1
        best = None
        for i in range(m):
            coeff = rows[i][enter]
            if coeff > 0:
                ratio = Fraction(b[i]) / coeff
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        assert leave >= 0, "phase-1 objective unbounded"

        inv = _ONE / rows[leave][enter]
        prow = [v * inv if v else 0 for v in rows[leave]]
        rows[leave] = prow
        b[leave] = b[leave] * inv
        nz = [(k, v) for k, v in enumerate(prow) if v]
        for i in range(m):
            if i == leave:
                continue
            f = rows[i][enter]
            if f:
                ri = rows[i]
                for k, v in nz:
                    ri[k] = ri[k] - f * v
                b[i] = b[i] - f * b[leave]
        f = obj[enter]
        if f:
            for k, v in nz:
                obj[k] = obj[k] - f * v
        if basis[leave] >= n:
            art_in_basis -= 1
        basis[leave] = enter

    if sum(b[i] for i in range(m) if basis[i] >= n) != 0:
        return None
    z = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            z[var] = Fraction(b[i])
    return z


def _echelon(rows, width):
    """Gauss-Jordan to the reduced row echelon form, in place."""
    pivot_cols = []
    r = 0
    for c in range(width):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivot_cols.append(c)
        r += 1
        if r == len(rows):
            break
    return pivot_cols


def gauss_solve(matrix, rhs):
    m = len(matrix)
    ncols = len(matrix[0]) if m else 0
    rows = [[Fraction(v) for v in row] + [Fraction(rhs[i])] for i, row in enumerate(matrix)]
    pivot_cols = _echelon(rows, ncols)
    if any(rows[i][ncols] != 0 for i in range(len(pivot_cols), m)):
        return None, False
    sol = [Fraction(0)] * ncols
    for r, c in enumerate(pivot_cols):
        sol[c] = rows[r][ncols]
    return sol, len(pivot_cols) == ncols


def kernel_vector(matrix):
    m = len(matrix)
    ncols = len(matrix[0]) if m else 0
    rows = [[Fraction(v) for v in row] for row in matrix]
    pivot_cols = _echelon(rows, ncols)
    free = next((c for c in range(ncols) if c not in set(pivot_cols)), None)
    if free is None:
        return None
    z = [Fraction(0)] * ncols
    z[free] = Fraction(1)
    for r, c in enumerate(pivot_cols):
        z[c] = -rows[r][free]
    return z


@dataclass(frozen=True)
class AffineMap:
    """An exact affine map x -> T x + c over the rationals."""

    matrix: tuple
    offset: tuple

    def __post_init__(self):
        if len(self.matrix) != len(self.offset):
            raise DimensionMismatch(len(self.matrix), len(self.offset))
        widths = {len(row) for row in self.matrix}
        if len(widths) > 1:
            raise InputError("ragged affine map matrix")

    @classmethod
    def from_int_rows(cls, rows, offset):
        return cls(
            tuple(tuple(Fraction(v) for v in row) for row in rows),
            tuple(Fraction(v) for v in offset),
        )

    @property
    def source_dim(self):
        return len(self.matrix[0]) if self.matrix else 0

    @property
    def target_dim(self):
        return len(self.matrix)

    def apply(self, x):
        if len(x) != self.source_dim:
            raise DimensionMismatch(self.source_dim, len(x))
        out = []
        for row, c in zip(self.matrix, self.offset):
            acc = c
            for t, v in zip(row, x):
                if t and v:
                    acc += t * v
            out.append(acc)
        return tuple(out)

    def apply_bits(self, x):
        image = self.apply(x)
        bits = []
        for v in image:
            if v == 0:
                bits.append(0)
            elif v == 1:
                bits.append(1)
            else:
                raise InvariantViolation(f"affine image is not 0/1: coordinate value {v}")
        return tuple(bits)

    def compose(self, inner):
        if inner.target_dim != self.source_dim:
            raise DimensionMismatch(self.source_dim, inner.target_dim)
        rows = []
        for row in self.matrix:
            rows.append(
                tuple(
                    sum((row[k] * inner.matrix[k][j] for k in range(self.source_dim)), Fraction(0))
                    for j in range(inner.source_dim)
                )
            )
        off = tuple(
            sum((row[k] * inner.offset[k] for k in range(self.source_dim)), c)
            for row, c in zip(self.matrix, self.offset)
        )
        return AffineMap(tuple(rows), off)
