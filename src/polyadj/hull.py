"""Exact decision procedures on explicit 0/1 vertex sets.

Operations: vertex enumeration of a coded polytope, convex-hull
membership with convex-weight certificates, Caratheodory support
reduction, supporting-hyperplane face tests, and vertex adjacency.

Enumeration works on int words, one bit per coordinate with coordinate
0 the most significant, and caches them per code; vertex_words hands
the words to the library's own bit-level code, and enumerate_vertices
unpacks them into Bits tuples, the form every public function here
takes and returns.

Every positive answer carries a certificate that re-verifies by exact
arithmetic, and every procedure is deterministic: identical inputs yield
identical certificates (fixed pivot order under Bland's rule, fixed
iteration order elsewhere).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations
from typing import Sequence

from . import linalg, simplex
from .errors import (
    DimensionCapExceeded,
    EmptyVertexList,
    EqualVertices,
    InputError,
    InvalidCertificate,
    InvariantViolation,
    NotASubset,
    VertexNotInSet,
)
from .model import (
    DEFAULT_ENUMERATION_CAP,
    Bits,
    PolytopeCode,
    as_bits,
    as_tuple,
    bits_from_int,
    constraint_rows,
    dimension,
)

RatVector = tuple[Fraction, ...]


# ---- vertex enumeration ----------------------------------------------------


def enumerate_vertices(
    code: PolytopeCode, *, max_dim: int = DEFAULT_ENUMERATION_CAP
) -> list[Bits]:
    """All 0/1 members of the coded polytope, in lexicographic order with
    coordinate 0 most significant.

    The search is a complete depth-first scan of the coordinate tree
    with per-constraint window pruning, so sparse vertex sets in high
    dimension enumerate quickly; the cap guards the dense worst case
    and must be raised explicitly to go past it.
    """
    d = dimension(code)
    return [bits_from_int(w, d) for w in vertex_words(code, max_dim=max_dim)]


def vertex_words(
    code: PolytopeCode, *, max_dim: int = DEFAULT_ENUMERATION_CAP
) -> tuple[int, ...]:
    """The vertices of enumerate_vertices as int words, coordinate 0 the
    most significant bit, in increasing order."""
    d = dimension(code)
    if d > max_dim:
        raise DimensionCapExceeded(d, max_dim)
    return _members(code)


@lru_cache(maxsize=512)
def _members(code: PolytopeCode) -> tuple[int, ...]:
    return tuple(_pruned_search(dimension(code), constraint_rows(code)))


def _pruned_search(d: int, constraints: Sequence[tuple[tuple[int, ...], int, int]]) -> list[int]:
    """Depth-first search over prefix words, each behind a leading 1 so
    that its depth is bit_length() - 1.  A child survives when every row
    holding its coordinate can still reach its window: each such row is
    compiled to (mask, lo - r, hi), mask picking the row's coordinates
    among the prefix and r counting the row's coordinates after it."""
    checks: list[list[tuple[int, int, int]]] = [[] for _ in range(d)]
    for support, lo, hi in constraints:
        # the only check on a row of empty support, which no coordinate holds
        if lo > len(support) or hi < 0:
            return []
        mask = prev = 0
        for seen, i in enumerate(sorted(support), 1):
            mask = mask << (i - prev) | 1
            prev = i
            checks[i].append((mask, lo - (len(support) - seen), hi))
    top = 1 << d
    out: list[int] = []
    # the 1-child is pushed first, so words leave the stack in increasing order
    stack = [1]
    while stack:
        word = stack.pop()
        if word >= top:
            out.append(word ^ top)
            continue
        rows = checks[word.bit_length() - 1]
        for child in (word << 1 | 1, word << 1):
            for mask, least, hi in rows:
                if not least <= (child & mask).bit_count() <= hi:
                    break
            else:
                stack.append(child)
    return out


# ---- hull membership -------------------------------------------------------


@dataclass(frozen=True)
class HullCertificate:
    """Convex combination witnessing p in conv(X): strictly positive
    weights, indexed into X, summing to one."""

    support: tuple[tuple[int, Fraction], ...]


@dataclass(frozen=True)
class FaceCertificate:
    """Supporting hyperplane: normal . x == offset on the face, and
    normal . x <= offset - 1 on every vertex outside it."""

    normal: RatVector
    offset: Fraction


@dataclass(frozen=True)
class SegmentCertificate:
    """Non-adjacency witness for vertex sets without midpoint symmetry:
    the point v + alpha*(u-v), strictly inside the segment, written as a
    convex combination of the other vertices."""

    alpha: Fraction
    point: RatVector
    support: tuple[tuple[int, Fraction], ...]


@dataclass(frozen=True)
class AdjacencyVerdict:
    adjacent: bool
    face_certificate: FaceCertificate | None
    midpoint_certificate: HullCertificate | None
    segment_certificate: SegmentCertificate | None = None


def _as_rational(p: Sequence) -> RatVector:
    """The point as Fractions, refusing floats, strings and the like."""
    p = as_tuple(p, "point")
    for v in p:
        if not isinstance(v, (int, Fraction)):
            raise InputError(f"point coordinate {v!r} is neither an int nor a Fraction")
    return tuple(map(Fraction, p))


def _hull_input(point: Sequence, vertices: Sequence[Bits]) -> tuple[RatVector, list[Bits]]:
    p = _as_rational(point)
    if not vertices:
        raise EmptyVertexList()
    return p, _vertex_rows(vertices, len(p))


def _vertex_rows(vertices: Sequence[Sequence[int]], dim: int | None = None) -> list[Bits]:
    """The vertices as tuples of one length (dim, or the first one's) under
    as_bits's rule, checked in one pass; as_bits names the first offender."""
    try:
        rows = [tuple(x) for x in vertices]
    except TypeError:
        rows = [as_tuple(x, "vertex") for x in vertices]
    dim = len(rows[0]) if dim is None and rows else dim
    try:
        bad = bytes(chain.from_iterable(rows)).translate(None, b"\x00\x01")
    except (TypeError, ValueError):
        bad = b"\x02"
    if bad or not {dim}.issuperset(map(len, rows)):
        for x in rows:
            as_bits(x, dim)
    return rows


def verify_hull_certificate(
    point: Sequence, vertices: Sequence[Bits], cert: HullCertificate
) -> None:
    """Exact re-check of a convex-combination certificate; raises
    InvalidCertificate on any failure."""
    p = _as_rational(point)
    total = Fraction(0)
    acc = [Fraction(0)] * len(p)
    for i, w in cert.support:
        if not 0 <= i < len(vertices):
            raise InvalidCertificate(f"support index {i} out of range")
        if w <= 0:
            raise InvalidCertificate(f"weight at index {i} is not positive")
        total += w
        for k, bit in enumerate(vertices[i]):
            if bit:
                acc[k] += w
    if total != 1:
        raise InvalidCertificate(f"weights sum to {total}, not 1")
    if tuple(acc) != p:
        raise InvalidCertificate("weighted vertex sum does not reproduce the point")


def in_convex_hull(point: Sequence, vertices: Sequence[Bits]) -> HullCertificate | None:
    """Membership of a rational point in conv(vertices).

    Returns a convex-weight certificate when inside, None when outside.
    Decided by exact phase-1 simplex on the combination system; the
    basic solution it returns already has support of size at most d+1.
    """
    p, vertices = _hull_input(point, vertices)
    d = len(p)
    rows = [[x[r] for x in vertices] for r in range(d)]
    rows.append([1] * len(vertices))
    rhs = list(p) + [1]
    sol = simplex.feasible_point(rows, rhs)
    if sol is None:
        return None
    cert = HullCertificate(tuple((i, w) for i, w in enumerate(sol) if w > 0))
    verify_hull_certificate(p, vertices, cert)
    return cert


def in_convex_hull_bruteforce(point: Sequence, vertices: Sequence[Bits]) -> HullCertificate | None:
    """Independent hull-membership oracle.

    Tries every affinely independent support subset of size at most d+1
    and solves the exact linear system directly; by Caratheodory's
    theorem this decides membership.  Exponential in |vertices|, meant
    for cross-validation on small inputs only.
    """
    p, vertices = _hull_input(point, vertices)
    d = len(p)
    rhs = list(p) + [1]
    for k in range(1, min(d + 1, len(vertices)) + 1):
        for subset in combinations(range(len(vertices)), k):
            matrix = [[vertices[i][r] for i in subset] for r in range(d)]
            matrix.append([1] * k)
            sol, unique = linalg.gauss_solve(matrix, rhs)
            if sol is None or not unique:
                continue
            if all(w >= 0 for w in sol):
                cert = HullCertificate(
                    tuple((i, w) for i, w in zip(subset, sol) if w > 0)
                )
                verify_hull_certificate(p, vertices, cert)
                return cert
    return None


def caratheodory_reduce(
    point: Sequence, vertices: Sequence[Bits], cert: HullCertificate
) -> HullCertificate:
    """Shrink a hull certificate to support of size at most d+1.

    While the support is affinely dependent, an exact dependency is
    subtracted at the largest step that keeps all weights nonnegative,
    zeroing at least one weight per round.
    """
    p, vertices = _hull_input(point, vertices)
    verify_hull_certificate(p, vertices, cert)
    d = len(p)
    idxs = [i for i, _ in cert.support]
    wts = [w for _, w in cert.support]
    while len(idxs) > d + 1:
        mu = linalg.affine_dependency([vertices[i] for i in idxs])
        if mu is None:
            raise InvariantViolation(
                f"{len(idxs)} points in dimension {d} must be affinely dependent"
            )
        if all(m <= 0 for m in mu):
            mu = [-m for m in mu]
        step = min(w / m for w, m in zip(wts, mu) if m > 0)
        wts = [w - step * m for w, m in zip(wts, mu)]
        keep = [k for k, w in enumerate(wts) if w > 0]
        idxs = [idxs[k] for k in keep]
        wts = [wts[k] for k in keep]
    reduced = HullCertificate(tuple(zip(idxs, wts)))
    verify_hull_certificate(p, vertices, reduced)
    return reduced


# ---- face tests ------------------------------------------------------------


def verify_face_certificate(
    face: Sequence[Bits], vertices: Sequence[Bits], cert: FaceCertificate
) -> None:
    """Exact re-check of a supporting hyperplane; raises
    InvalidCertificate on any failure."""
    face_set = set(face)
    a, b = cert.normal, cert.offset
    for x in vertices:
        value = sum((w for w, bit in zip(a, x) if bit), Fraction(0))
        if x in face_set:
            if value != b:
                raise InvalidCertificate(f"face vertex {x} off the hyperplane")
        elif value > b - 1:
            raise InvalidCertificate(f"outside vertex {x} not separated by a full unit")


def is_face(face: Sequence[Bits], vertices: Sequence[Bits]) -> FaceCertificate | None:
    """Decide whether the given vertex subset is exactly the vertex set
    of a face of conv(vertices).

    Positive answers return a hyperplane with normal . x == offset on
    the subset and normal . x <= offset - 1 outside it (strictness is
    normalized to a full unit by scaling, which is harmless for a
    finite vertex set).  The empty set and the full set are faces.
    Decided by exact LP feasibility, with one shortcut: when the subset
    is exactly a coordinate slice of the vertex list, the +-1 indicator
    hyperplane of the agreeing coordinates is emitted directly.  The
    shortcut is verified like any other certificate and never decides
    the negative direction.
    """
    vert_list = _vertex_rows(vertices)
    d = len(vert_list[0]) if vert_list else 0
    face_list = _vertex_rows(face, d if vert_list else None)
    face_set = set(face_list)
    if len(face_set) != len(face_list):
        raise InputError("face subset contains duplicates")
    if not face_set <= set(vert_list):
        raise NotASubset()
    if not face_set:
        return FaceCertificate(tuple(Fraction(0) for _ in range(d)), Fraction(1))
    members = [x for x in vert_list if x in face_set]
    outside = [x for x in vert_list if x not in face_set]
    if not outside:
        return FaceCertificate(tuple(Fraction(0) for _ in range(d)), Fraction(0))

    cert = _slice_certificate(members, outside, d)
    if cert is not None:
        verify_face_certificate(members, vert_list, cert)
        return cert

    # LP over (a, b), translated so b = a . x0: equalities pin the face
    # to the hyperplane, inequalities push everything else a unit below.
    # Free coordinates of a are split into positive and negative parts;
    # one slack per outside vertex.
    x0 = members[0]
    cols = 2 * d + len(outside)
    rows = []
    rhs = []
    for f in members[1:]:
        row = [0] * cols
        for k in range(d):
            diff = f[k] - x0[k]
            if diff:
                row[k] = diff
                row[d + k] = -diff
        rows.append(row)
        rhs.append(0)
    for slack, z in enumerate(outside):
        row = [0] * cols
        for k in range(d):
            diff = x0[k] - z[k]
            if diff:
                row[k] = diff
                row[d + k] = -diff
        row[2 * d + slack] = -1
        rows.append(row)
        rhs.append(1)
    sol = simplex.feasible_point(rows, rhs)
    if sol is None:
        return None
    normal = tuple(sol[k] - sol[d + k] for k in range(d))
    offset = sum((w for w, bit in zip(normal, x0) if bit), Fraction(0))
    cert = FaceCertificate(normal, offset)
    verify_face_certificate(members, vert_list, cert)
    return cert


def _slice_certificate(
    members: Sequence[Bits], outside: Sequence[Bits], d: int
) -> FaceCertificate | None:
    """When the face subset is exactly the set of vertices agreeing with
    it on its constant coordinates, those coordinates support it."""
    first = members[0]
    agree = [k for k in range(d) if all(x[k] == first[k] for x in members)]
    for z in outside:
        if all(z[k] == first[k] for k in agree):
            return None
    normal = [Fraction(0)] * d
    offset = Fraction(0)
    for k in agree:
        if first[k]:
            normal[k] = Fraction(1)
            offset += 1
        else:
            normal[k] = Fraction(-1)
    return FaceCertificate(tuple(normal), offset)


# ---- adjacency -------------------------------------------------------------


def _segment_witness(
    u: Bits, v: Bits, rest: Sequence[Bits]
) -> tuple[Fraction, RatVector, HullCertificate] | None:
    """A point of the open segment (u, v) inside conv(rest), if any.

    Solved as one feasibility LP over the convex weights and the
    segment parameter alpha with z = v + alpha*(u - v).
    """
    if not rest:
        return None
    d = len(u)
    nw = len(rest)
    rows: list[list[int]] = []
    rhs: list[int] = []
    for i in range(d):
        rows.append([x[i] for x in rest] + [v[i] - u[i], 0])
        rhs.append(v[i])
    rows.append([1] * nw + [0, 0])
    rhs.append(1)
    rows.append([0] * nw + [1, 1])
    rhs.append(1)
    sol = simplex.feasible_point(rows, rhs)
    if sol is None:
        return None
    alpha = sol[nw]
    if not 0 < alpha < 1:
        raise InvariantViolation(
            f"segment witness landed on an endpoint (alpha = {alpha})"
        )
    point = tuple(Fraction(b) + alpha * (a - b) for a, b in zip(u, v))
    support = tuple((i, w) for i, w in enumerate(sol[:nw]) if w)
    cert = HullCertificate(support)
    verify_hull_certificate(point, rest, cert)
    return alpha, point, cert


def _midpoint_may_be_inside(u: Bits, v: Bits, rest: Sequence[Bits]) -> bool:
    """False when (u+v)/2 provably avoids conv(rest), decided without an
    LP.  A convex combination of 0/1 points that is 0 or 1 on a
    coordinate uses only points with that value there, and one that is
    1/2 needs points with both values: so only rest vertices agreeing
    with u and v wherever those agree can take part, and among them
    every coordinate where u and v differ must take both values."""
    same = [k for k in range(len(u)) if u[k] == v[k]]
    diff = [k for k in range(len(u)) if u[k] != v[k]]
    agreeing = [x for x in rest if all(x[k] == u[k] for k in same)]
    return all(len({x[k] for x in agreeing}) == 2 for k in diff)


def are_adjacent(vertices: Sequence[Bits], u: Bits, v: Bits) -> AdjacencyVerdict:
    """Whether u and v span an edge of conv(vertices).

    Non-adjacency is tried first, as "is the midpoint (u+v)/2 in the
    hull of the other vertices": on this package's polytope families
    that decides every non-adjacent pair, and the midpoint LP is skipped
    whenever an exact 0/1 argument already places the midpoint outside
    (see _midpoint_may_be_inside).  Otherwise the pair is decided as "is
    {u, v} a face", with a supporting hyperplane as the positive
    certificate.  A non-face whose midpoint avoids the hull (possible
    only for vertex sets without that symmetry) gets a certificate for
    some other interior point of the segment, which exists for every
    non-adjacent vertex pair.  The order changes no certificate: the
    midpoint lies in the hull of the rest only if {u, v} is not a face.
    """
    vert_list = _vertex_rows(vertices)
    d = len(vert_list[0]) if vert_list else None
    u, v = as_bits(u, d), as_bits(v, d)
    if u == v:
        raise EqualVertices()
    if u not in vert_list or v not in vert_list:
        raise VertexNotInSet()
    rest_positions = [i for i, x in enumerate(vert_list) if x != u and x != v]
    rest = [vert_list[i] for i in rest_positions]
    if _midpoint_may_be_inside(u, v, rest):
        midpoint = tuple(Fraction(a + b, 2) for a, b in zip(u, v))
        inner = in_convex_hull(midpoint, rest)
        if inner is not None:
            support = tuple((rest_positions[i], w) for i, w in inner.support)
            return AdjacencyVerdict(False, None, HullCertificate(support))
    cert = is_face((u, v), vert_list)
    if cert is not None:
        return AdjacencyVerdict(True, cert, None)
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
