"""Independent answer checks for the benchmark.

Nothing here calls into polyadj: vertex sets come from brute force over
{0,1}^d, certificates are re-checked with plain Fraction sums, and the
partition question is decided by trying every 0/1 vector.  A check
returns an error string, or None when the answer holds.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product


def stable_sets(vertex_count, edges):
    """Indicator vectors of the independent sets, in lexicographic order
    with coordinate 0 most significant."""
    nbr = [0] * vertex_count
    for u, v in edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    out = []
    for x in product((0, 1), repeat=vertex_count):
        mask = 0
        for i, b in enumerate(x):
            if b:
                mask |= 1 << i
        if all(not x[v] or not mask & nbr[v] for v in range(vertex_count)):
            out.append(x)
    return out


def is_stable(x, edges):
    return all(not (x[u] and x[v]) for u, v in edges)


def connected_difference(s, t, edges):
    """Whether the subgraph induced on the symmetric difference of two
    indicator vectors is connected (and nonempty).  By Chvatal's
    criterion this is exactly adjacency on the stable-set polytope."""
    nodes = {i for i, (a, b) in enumerate(zip(s, t)) if a != b}
    if not nodes:
        return False
    start = min(nodes)
    seen = {start}
    todo = [start]
    while todo:
        a = todo.pop()
        for u, v in edges:
            for x, y in ((u, v), (v, u)):
                if x == a and y in nodes and y not in seen:
                    seen.add(y)
                    todo.append(y)
    return seen == nodes


_WINDOWS = {
    "cover": lambda s, w: s >= 1,
    "pack": lambda s, w: s <= 1,
    "part": lambda s, w: s == 1,
    "dcp": lambda s, w: s == 2,
}


def matrix_members(family, rows, ncols):
    """0/1 points selected by a matrix family, by brute force over
    {0,1}^ncols (lexicographic order)."""
    ok = _WINDOWS[family]
    supports = [[j for j, b in enumerate(r) if b] for r in rows]
    return [
        x
        for x in product((0, 1), repeat=ncols)
        if all(ok(sum(x[j] for j in sup), len(sup)) for sup in supports)
    ]


def partition_count(rows, ncols):
    """Number of 0/1 vectors x with Ax = 1."""
    return len(matrix_members("part", rows, ncols))


def check_face(normal, offset, face, vertices):
    """normal . x == offset on the face, <= offset - 1 on every other vertex."""
    face = set(face)
    for x in vertices:
        value = sum((w for w, b in zip(normal, x) if b), Fraction(0))
        if x in face:
            if value != offset:
                return f"face vertex {x} off the hyperplane"
        elif value > offset - 1:
            return f"vertex {x} not separated from the face"
    return None


def check_hull(point, support, vertices, excluded=()):
    """Positive weights on the indexed vertices that sum to one and
    reproduce the point; indices in `excluded` may not appear."""
    total = Fraction(0)
    acc = [Fraction(0)] * len(point)
    for i, w in support:
        if not 0 <= i < len(vertices) or i in excluded:
            return f"bad support index {i}"
        if w <= 0:
            return f"non-positive weight at {i}"
        total += w
        for k, b in enumerate(vertices[i]):
            if b:
                acc[k] += w
    if total != 1:
        return f"weights sum to {total}"
    if acc != [Fraction(c) for c in point]:
        return "weights do not reproduce the point"
    return None


def check_adjacency(vertices, u, v, adjacent, face, midpoint, segment):
    """Re-check an adjacency verdict from its certificate alone.

    face is (normal, offset); midpoint is a support list for (u+v)/2;
    segment is (alpha, point, support).  Indices are 0-based into
    vertices.  A valid certificate proves the verdict either way.
    """
    ends = (vertices.index(u), vertices.index(v))
    if adjacent:
        if face is None:
            return "adjacent verdict without a face certificate"
        return check_face(face[0], face[1], (u, v), vertices)
    if midpoint is not None:
        mid = [Fraction(a + b, 2) for a, b in zip(u, v)]
        return check_hull(mid, midpoint, vertices, ends)
    if segment is None:
        return "non-adjacent verdict without a certificate"
    alpha, point, support = segment
    if not 0 < alpha < 1:
        return f"segment parameter {alpha} outside (0, 1)"
    if list(point) != [b + alpha * (a - b) for a, b in zip(u, v)]:
        return "segment point is not on the segment"
    return check_hull(point, support, vertices, ends)


def rat(text):
    """Parse the wire form n/d."""
    num, den = text.split("/")
    return Fraction(int(num), int(den))


def bits(word):
    return tuple(int(c) for c in word)
