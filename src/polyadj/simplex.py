"""Phase-1 simplex over exact rationals with Bland's anti-cycling rule.

This is a pure feasibility engine: find z >= 0 with A z = b, or prove
there is none.  Entries may be ints or Fractions and the solution comes
back as Fractions; there is no floating point and no tolerance anywhere.

Pivoting is fraction-free (Edmonds; Bareiss, Math. Comp. 1968): rows are
scaled to integers by the lcm of their denominators, and the tableau is
kept over one shared positive denominator D, the basis determinant.  A
pivot on p sets every other entry t to (p*t - t_e*t_r) // D, an exact
division, and then D = p.  The pivot rule is Bland's: the smallest
improving column enters, ratio ties leave on the smallest basic
variable.  Row scaling changes neither the sign of a reduced cost nor a
ratio, so the pivots, and the basic solution returned, are those of the
same rule on the Fraction tableau: a deterministic function of the input.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from .errors import Defect
from .linalg import integer_row


# pivots one feasible_point call may take before it raises a Defect
MAX_PIVOTS = 5_000_000


def feasible_point(matrix: Sequence[Sequence], rhs: Sequence) -> list[Fraction] | None:
    """Solve the feasibility problem {z >= 0 : matrix . z = rhs} exactly.

    Returns a basic feasible solution (so at most len(matrix) entries are
    nonzero), or None when the system is infeasible.
    """
    m = len(matrix)
    if m == 0:
        raise Defect("feasibility system with no rows")
    n = len(matrix[0])

    # Scale each row to integers, then flip its sign until the right-hand
    # side is nonnegative; one artificial column per row then forms a
    # feasible starting basis with determinant D = 1.
    rows: list[list[int]] = []
    b: list[int] = []
    scales: list[int] = []
    for row, v in zip(matrix, rhs, strict=True):
        r, c = integer_row([*row, v])
        if r[-1] < 0:
            r = [-x for x in r]
        b.append(r.pop())
        rows.append(r)
        scales.append(c)

    basis = [n + i for i in range(m)]
    art_in_basis = m
    den = 1

    # Reduced-cost row for "minimize the sum of artificials", kept over
    # the structural columns only as row m: once an artificial leaves the
    # basis it never re-enters, which preserves both correctness and
    # termination.  Weight big // c_i on scaled row i sums the unscaled
    # rows times big, so each reduced cost keeps its unscaled sign.
    big = lcm(*set(scales))
    weights = [big // c for c in scales]
    rows.append([sum(w * r[j] for w, r in zip(weights, rows)) for j in range(n)])
    b.append(sum(w * v for w, v in zip(weights, b)))

    pivots = 0
    while art_in_basis:
        obj = rows[m]
        enter = -1
        for j in range(n):
            if obj[j] > 0:
                enter = j
                break
        if enter < 0:
            break

        # Ratio test b[i] / rows[i][enter], compared by cross-multiplying.
        leave = -1
        for i in range(m):
            coeff = rows[i][enter]
            if coeff > 0:
                if leave < 0:
                    leave, num, p = i, b[i], coeff
                    continue
                lhs, rhs_ = b[i] * p, num * coeff
                if lhs < rhs_ or (lhs == rhs_ and basis[i] < basis[leave]):
                    leave, num, p = i, b[i], coeff
        if leave < 0:
            raise Defect("phase-1 objective unbounded")

        pivots += 1
        if pivots > MAX_PIVOTS:
            raise Defect("pivot budget exhausted")

        prow = rows[leave]
        if p == den:
            # (p*x - f*y) // p moves only the entries where y != 0.
            nz = [(k, y) for k, y in enumerate(prow) if y]
            for i, ri in enumerate(rows):
                f = ri[enter]
                if f and i != leave:
                    for k, y in nz:
                        ri[k] -= f * y // p
                    b[i] -= f * num // p
        else:
            for i, ri in enumerate(rows):
                if i != leave:
                    f = ri[enter]
                    rows[i] = [(p * x - f * y) // den for x, y in zip(ri, prow)]
                    b[i] = (p * b[i] - f * num) // den
            den = p
        if basis[leave] >= n:
            art_in_basis -= 1
        basis[leave] = enter

    if any(b[i] for i in range(m) if basis[i] >= n):
        return None
    z = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            z[var] = Fraction(b[i], den)
    return z
