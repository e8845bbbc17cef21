"""Reference face-first adjacency decision, kept for differential tests.

This is the ``are_adjacent`` that ``polyadj.hull`` replaced by a
midpoint-first order behind an exact pre-test: it runs the face LP on
every pair, and the midpoint LP only after the face LP fails.  Both
orders must return equal verdicts, certificates included, on every
input.
"""

from fractions import Fraction

from polyadj.errors import EqualVertices, InvariantViolation, VertexNotInSet
from polyadj.hull import (
    AdjacencyVerdict,
    HullCertificate,
    SegmentCertificate,
    _segment_witness,
    in_convex_hull,
    is_face,
)


def are_adjacent(vertices, u, v):
    u = tuple(u)
    v = tuple(v)
    if u == v:
        raise EqualVertices()
    vert_list = [tuple(x) for x in vertices]
    if u not in vert_list or v not in vert_list:
        raise VertexNotInSet()
    cert = is_face((u, v), vert_list)
    if cert is not None:
        return AdjacencyVerdict(True, cert, None)
    midpoint = tuple(Fraction(a + b, 2) for a, b in zip(u, v))
    rest_positions = [i for i, x in enumerate(vert_list) if x != u and x != v]
    rest = [vert_list[i] for i in rest_positions]
    inner = in_convex_hull(midpoint, rest)
    if inner is not None:
        support = tuple((rest_positions[i], w) for i, w in inner.support)
        return AdjacencyVerdict(False, None, HullCertificate(support))
    witness = _segment_witness(u, v, rest)
    if witness is None:
        raise InvariantViolation(
            "non-adjacent pair whose segment avoids the hull of the rest"
        )
    alpha, point, inner_cert = witness
    support = tuple((rest_positions[i], w) for i, w in inner_cert.support)
    return AdjacencyVerdict(
        False, None, None, SegmentCertificate(alpha, point, support)
    )
