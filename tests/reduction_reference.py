"""Reference npadj_to_dcp, kept for differential tests.

This is the hand-written builder of the double-cover matrix, with the
adjacency-family layout spelled out coordinate by coordinate, that
``polyadj.reductions.npadj_to_dcp`` replaced by reading the rows off
``constraint_rows(npadj(a))``.  The derived artifact must equal this
one: the same target matrix with the same row order, the same map, face
fixes and coordinate embedding.
"""

from polyadj.model import AffineMap, BinaryMatrix, NPadjLayout, dcp, npadj
from polyadj.reductions import ReductionArtifact


def npadj_to_dcp(a: BinaryMatrix) -> ReductionArtifact:
    n = a.ncols
    lay = NPadjLayout(n)
    target_dim = lay.dim + 2

    def shifted(i: int) -> int:
        return 2 + i

    b_rows = []
    for j in range(n):
        row = [0] * target_dim
        row[0] = row[1] = 1
        row[shifted(lay.x(j))] = 1
        row[shifted(lay.xbar(j))] = 1
        b_rows.append(tuple(row))
        row = [0] * target_dim
        row[shifted(lay.y1)] = 1
        row[shifted(lay.y2)] = 1
        row[shifted(lay.xprime(j))] = 1
        row[shifted(lay.xbar(j))] = 1
        b_rows.append(tuple(row))
    for r in range(a.nrows):
        i, j, k = a.row_support(r)
        row = [0] * target_dim
        row[shifted(lay.y3)] = 1
        row[shifted(lay.x(i))] = 1
        row[shifted(lay.xprime(j))] = 1
        row[shifted(lay.xprime(k))] = 1
        b_rows.append(tuple(row))
    b = BinaryMatrix(tuple(b_rows), target_dim)

    map_rows = [[0] * lay.dim for _ in range(target_dim)]
    offset = [0] * target_dim
    offset[1] = 1
    for i in range(lay.dim):
        map_rows[shifted(i)][i] = 1
    return ReductionArtifact(
        source=npadj(a),
        target=dcp(b),
        amap=AffineMap.from_int_rows(map_rows, offset),
        face_fixes=((0, 0), (1, 1)),
        coord_embedding=tuple(shifted(i) for i in range(lay.dim)),
    )
