"""Reference reductions into and out of the adjacency family, kept for
differential tests.

These are the hand-written builders of ``part_to_npadj`` and
``npadj_to_dcp``, with the adjacency-family layout spelled out
coordinate by coordinate, that ``polyadj.reductions`` replaced by
reading the coordinates off ``constraint_rows(npadj(a))``.  Each
returns its artifact together with the face fixes written out by hand.
The derived artifacts must equal these: the same target code (the same
matrix with the same row order) and map, and face fixes read off the
map that equal the hand-written ones.

Layout in dimension 3n + 3: y1 y2 y3 at 0-2, x_j at 3 + j, xbar_j at
3 + n + j, xp_j at 3 + 2n + j.
"""

from polyadj.model import AffineMap, BinaryMatrix, dcp, npadj, part
from polyadj.reductions import ReductionArtifact

Fixes = tuple[tuple[int, int], ...]

Y1, Y2, Y3 = 0, 1, 2


def special_x0(a: BinaryMatrix) -> tuple[int, ...]:
    """x0 = (0,0,0 | 0...0 | 1...1 | 1...1)."""
    n = a.ncols
    return (0, 0, 0) + (0,) * n + (1,) * n + (1,) * n


def part_to_npadj(a: BinaryMatrix) -> tuple[ReductionArtifact, Fixes]:
    n = a.ncols
    dim = 3 * n + 3
    x, xbar, xp = 3, 3 + n, 3 + 2 * n
    map_rows = [[0] * n for _ in range(dim)]
    offset = [0] * dim
    offset[Y2] = 1
    offset[Y3] = 1
    for j in range(n):
        map_rows[x + j][j] = 1
        map_rows[xbar + j][j] = -1
        offset[xbar + j] = 1
        map_rows[xp + j][j] = 1
    art = ReductionArtifact(source=part(a), target=npadj(a), amap=AffineMap(map_rows, offset))
    return art, ((Y1, 0), (Y2, 1), (Y3, 1))


def npadj_to_dcp(a: BinaryMatrix) -> tuple[ReductionArtifact, Fixes]:
    n = a.ncols
    dim = 3 * n + 3
    x, xbar, xp = 3, 3 + n, 3 + 2 * n
    target_dim = dim + 2

    def shifted(i: int) -> int:
        return 2 + i

    b_rows = []
    for j in range(n):
        row = [0] * target_dim
        row[0] = row[1] = 1
        row[shifted(x + j)] = 1
        row[shifted(xbar + j)] = 1
        b_rows.append(tuple(row))
        row = [0] * target_dim
        row[shifted(Y1)] = 1
        row[shifted(Y2)] = 1
        row[shifted(xp + j)] = 1
        row[shifted(xbar + j)] = 1
        b_rows.append(tuple(row))
    for r in range(a.nrows):
        i, j, k = a.row_support(r)
        row = [0] * target_dim
        row[shifted(Y3)] = 1
        row[shifted(x + i)] = 1
        row[shifted(xp + j)] = 1
        row[shifted(xp + k)] = 1
        b_rows.append(tuple(row))
    b = BinaryMatrix(tuple(b_rows), target_dim)

    map_rows = [[0] * dim for _ in range(target_dim)]
    offset = [0] * target_dim
    offset[1] = 1
    for i in range(dim):
        map_rows[shifted(i)][i] = 1
    art = ReductionArtifact(source=npadj(a), target=dcp(b), amap=AffineMap(map_rows, offset))
    return art, ((0, 0), (1, 1))
