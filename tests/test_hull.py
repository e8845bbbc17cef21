import gc
import random
import re
from fractions import Fraction
from itertools import combinations

import enumeration_reference
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyadj.errors import (
    DimensionCapExceeded,
    DimensionMismatch,
    EmptyVertexList,
    EqualVertices,
    InputError,
    InvalidCertificate,
    NotASubset,
    VertexNotInSet,
)
from polyadj.generators import random_vertex_set
from polyadj.hull import (
    FaceCertificate,
    HullCertificate,
    _pruned_search,
    are_adjacent,
    caratheodory_reduce,
    enumerate_vertices,
    in_convex_hull,
    in_convex_hull_bruteforce,
    is_face,
    verify_face_certificate,
    verify_hull_certificate,
    vertex_words,
)
from polyadj.model import (
    BinaryMatrix,
    Graph,
    bits_from_int,
    constraint_rows,
    cover,
    dcp,
    dimension,
    membership,
    npadj,
    pack,
    part,
    stable,
)
from polyadj.sweeps import matsui_instance_family
from polyadj.witness import refute_face

OCTA = dcp(BinaryMatrix.from_rows([[1, 1, 1, 1]]))


def test_enumeration_is_lexicographic():
    verts = enumerate_vertices(OCTA)
    assert verts == sorted(verts)
    assert len(verts) == 6


def test_enumeration_matches_direct_scan():
    # Independent oracle: test every point of the cube via membership.
    a = BinaryMatrix.from_rows([[1, 1, 1]])
    code = npadj(a)
    d = dimension(code)
    scan = [bits_from_int(w, d) for w in range(1 << d)]
    expected = [x for x in scan if membership(code, x)]
    assert enumerate_vertices(code) == expected
    assert len(expected) == 14


def test_enumeration_at_zero_and_cap_dimension():
    assert enumerate_vertices(stable(Graph(0, ()))) == [()]
    # a complete graph on 24 vertices: the empty set and the singletons
    k24 = Graph(24, combinations(range(24), 2))
    verts = enumerate_vertices(stable(k24))
    assert verts == [(0,) * 24] + [
        tuple(int(i == j) for i in range(24)) for j in reversed(range(24))
    ]
    with pytest.raises(DimensionCapExceeded):
        enumerate_vertices(stable(Graph(25, ())))


def _path_partition(n):
    # row i has ones at columns i and i+1: two vertices, alternating
    rows = tuple(tuple(int(j in (i, i + 1)) for j in range(n)) for i in range(n - 1))
    return part(BinaryMatrix(rows, n))


def test_enumeration_depth_is_bounded_by_max_dim_only():
    # far deeper than the interpreter's recursion limit lets a recursive search go
    assert len(vertex_words(_path_partition(1100), max_dim=2000)) == 2


def test_pruned_search_leaves_no_cyclic_garbage():
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    rows = constraint_rows(stable(g))
    gc.collect()
    gc.disable()
    try:
        assert len(_pruned_search(6, rows)) == 21
        assert gc.collect() == 0
    finally:
        gc.enable()


@st.composite
def _constraint_systems(draw):
    # empty supports, unsorted supports, and windows reaching outside
    # [0, |support|] on both sides
    d = draw(st.integers(min_value=0, max_value=12))
    coords = st.sets(st.integers(0, d - 1), max_size=6) if d else st.just(set())
    rows = []
    for support in draw(st.lists(coords, max_size=8)):
        k = len(support)
        lo = draw(st.integers(-1, k + 1))
        hi = draw(st.integers(-1, k + 1))
        rows.append((tuple(draw(st.permutations(sorted(support)))), lo, hi))
    return d, rows


@settings(max_examples=300)
@given(_constraint_systems())
def test_search_matches_recursive_reference(system):
    d, rows = system
    assert _pruned_search(d, rows) == enumeration_reference._pruned_search(d, rows)


def _family_codes():
    rng = random.Random(20261018)
    codes = [stable(Graph(0, ()))]
    for n in range(1, 7):
        pairs = list(combinations(range(n), 2))
        codes.append(stable(Graph(n, rng.sample(pairs, rng.randint(0, len(pairs))))))
    for n in range(1, 8):
        a = BinaryMatrix(
            tuple(tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(rng.randint(0, 5))), n
        )
        codes += [cover(a), pack(a), part(a)]
    for n in range(4, 8):
        sups = [rng.sample(range(n), 4) for _ in range(rng.randint(0, 3))]
        codes.append(dcp(BinaryMatrix(tuple(tuple(int(j in s) for j in range(n)) for s in sups), n)))
    codes.append(npadj(BinaryMatrix.from_rows([[1, 1, 1, 0], [0, 1, 1, 1]])))
    return codes


@pytest.mark.parametrize("code", _family_codes(), ids=lambda c: c.family)
def test_family_vertices_match_recursive_reference(code):
    d = dimension(code)
    assert vertex_words(code) == tuple(
        enumeration_reference._pruned_search(d, constraint_rows(code))
    )


def test_matsui_family_vertices_match_recursive_reference():
    for a in matsui_instance_family():
        for code in (npadj(a), part(a)):
            expected = enumeration_reference._pruned_search(dimension(code), constraint_rows(code))
            assert vertex_words(code) == tuple(expected)


def test_enumeration_cap():
    a = BinaryMatrix.from_rows([[1, 1, 1, 0, 0, 0, 0, 0]])
    code = npadj(a)
    with pytest.raises(DimensionCapExceeded):
        enumerate_vertices(code)
    verts = enumerate_vertices(code, max_dim=27)
    assert len(verts) == 2 + 4 * 96


def test_in_convex_hull_inside():
    verts = [(0, 0), (1, 1)]
    cert = in_convex_hull((Fraction(1, 2), Fraction(1, 2)), verts)
    assert cert is not None
    verify_hull_certificate((Fraction(1, 2), Fraction(1, 2)), verts, cert)


def test_hull_needs_a_vertex():
    with pytest.raises(EmptyVertexList):
        in_convex_hull((0,), [])


def test_in_convex_hull_outside():
    verts = [(0, 0), (1, 1)]
    assert in_convex_hull((Fraction(3, 4), Fraction(1, 4)), verts) is None
    assert in_convex_hull_bruteforce((Fraction(3, 4), Fraction(1, 4)), verts) is None


def test_hull_certificate_rejects_tampering():
    verts = [(0, 0), (1, 1)]
    point = (Fraction(1, 2), Fraction(1, 2))
    cert = in_convex_hull(point, verts)
    bad = HullCertificate(((0, Fraction(1, 4)), (1, Fraction(1, 2))))
    with pytest.raises(InvalidCertificate):
        verify_hull_certificate(point, verts, bad)
    good = HullCertificate(cert.support)
    verify_hull_certificate(point, verts, good)


def test_caratheodory_reduces_octahedron_center():
    verts = enumerate_vertices(OCTA)
    center = tuple(Fraction(1, 2) for _ in range(4))
    fat = HullCertificate(tuple((i, Fraction(1, 6)) for i in range(6)))
    verify_hull_certificate(center, verts, fat)
    slim = caratheodory_reduce(center, verts, fat)
    assert len(slim.support) <= 5
    verify_hull_certificate(center, verts, slim)


def test_caratheodory_reduces_dependent_square():
    verts = [(0, 0), (0, 1), (1, 0), (1, 1)]
    center = (Fraction(1, 2), Fraction(1, 2))
    fat = HullCertificate(tuple((i, Fraction(1, 4)) for i in range(4)))
    slim = caratheodory_reduce(center, verts, fat)
    assert len(slim.support) <= 3
    verify_hull_certificate(center, verts, slim)


def test_is_face_empty_and_improper():
    verts = enumerate_vertices(OCTA)
    empty = is_face([], verts)
    assert empty is not None and empty.offset == 1
    whole = is_face(verts, verts)
    assert whole is not None and whole.offset == 0
    assert all(c == 0 for c in whole.normal)


def test_is_face_slice():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    verts = enumerate_vertices(stable(g))
    face = [x for x in verts if x[0] == 1]
    cert = is_face(face, verts)
    assert cert is not None
    verify_face_certificate(face, verts, cert)


def test_is_face_rejects_diagonal_pair():
    verts = enumerate_vertices(OCTA)
    pair = [(1, 1, 0, 0), (0, 0, 1, 1)]
    assert is_face(pair, verts) is None


def test_is_face_rejects_non_subset():
    verts = enumerate_vertices(OCTA)
    with pytest.raises(NotASubset):
        is_face([(1, 0, 0, 0)], verts)


@pytest.mark.parametrize(
    "face, outcome",
    [
        pytest.param([(0, 1)], NotASubset, id="vertex"),
        pytest.param([], FaceCertificate((), Fraction(1)), id="empty"),
    ],
)
def test_is_face_of_no_vertices(face, outcome):
    # the face is checked against its own length, not a dimension of 0
    try:
        got = is_face(face, [])
    except InputError as exc:
        got = type(exc)
    assert got == outcome


def test_is_face_rejects_duplicates():
    verts = enumerate_vertices(OCTA)
    with pytest.raises(InputError, match="^face subset contains duplicates$"):
        is_face([verts[0], verts[0]], verts)


# Every public entry point that takes a caller's 0/1 vector or vertex
# list, called with the bad vector x where a 2-coordinate vertex belongs
# (the bare ids are the vertex list of are_adjacent).
_VERTEX_ENTRIES = {
    "": lambda x: are_adjacent([(0, 0), (1, 1), x], (0, 0), (1, 1)),
    "adjacent-u-": lambda x: are_adjacent([(0, 0), (1, 1), (1, 0)], x, (1, 1)),
    "adjacent-v-": lambda x: are_adjacent([(0, 0), (1, 1), (1, 0)], (0, 0), x),
    "face-": lambda x: is_face([(0, 0)], [(0, 0), (1, 1), x]),
    "face-subset-": lambda x: is_face([x], [(0, 0), (1, 1), (1, 0)]),
    "hull-": lambda x: in_convex_hull((0, 0), [(0, 0), (1, 1), x]),
    "bruteforce-": lambda x: in_convex_hull_bruteforce((0, 0), [(0, 0), (1, 1), x]),
    "caratheodory-": lambda x: caratheodory_reduce(
        (0, 0), [(0, 0), (1, 1), x], HullCertificate(((0, Fraction(1)),))
    ),
    "membership-": lambda x: membership(part(BinaryMatrix.from_rows([[1, 1]])), x),
    "matrix-": lambda x: BinaryMatrix(((0, 1), x), 2),
    "from-rows-": lambda x: BinaryMatrix.from_rows([[0, 1], x]),
    "refute-": lambda x: refute_face(
        Graph(2, ()), [(x, (1, 1)), ((0, 1), (1, 0)), ((1, 0), (0, 1))]
    ),
}
_BAD_VERTICES = {
    "entry-2": (2, 0),
    "entry-minus-1": (-1, 0),
    "entry-half": (0.5, 0),
    "entry-float-1": (1.0, 0),
    "entry-str-1": ("1", 0),
    "short": (1,),
    "long": (1, 0, 1),
    "not-a-sequence": 5,
}


def _vertex_error(x):
    if not isinstance(x, tuple):
        return InputError, f"vertex {x} is not a sequence"
    if len(x) != 2 and set(x) <= {0, 1}:
        return DimensionMismatch, f"expected dimension 2, got {len(x)}"
    return InputError, re.escape(f"vertex {x} has an entry outside 0/1")


# Points take ints and Fractions only, never floats or strings.
_FLOAT_POINT = "point coordinate 0.1 is neither an int nor a Fraction"
_HALF = HullCertificate(((0, Fraction(1, 2)), (1, Fraction(1, 2))))
_BAD_POINTS = {
    "point-hull-float": (lambda: in_convex_hull((0.1,), [(0,), (1,)]), _FLOAT_POINT),
    "point-hull-str": (
        lambda: in_convex_hull(("1/2", 0.5), [(0, 0), (1, 1)]),
        "point coordinate '1/2' is neither an int nor a Fraction",
    ),
    "point-bruteforce-float": (
        lambda: in_convex_hull_bruteforce((0.1,), [(0,), (1,)]), _FLOAT_POINT
    ),
    "point-caratheodory-float": (
        lambda: caratheodory_reduce((0.1,), [(0,), (1,)], _HALF), _FLOAT_POINT
    ),
    "point-verify-float": (
        lambda: verify_hull_certificate((0.1,), [(0,), (1,)], _HALF), _FLOAT_POINT
    ),
    "point-hull-not-a-sequence": (
        lambda: in_convex_hull(5, [(0,), (1,)]), "point 5 is not a sequence"
    ),
    "point-verify-not-a-sequence": (
        lambda: verify_hull_certificate(5, [(0,), (1,)], _HALF), "point 5 is not a sequence"
    ),
}


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(
            lambda entry=entry, x=x: entry(x), *_vertex_error(x), id=prefix + name
        )
        for prefix, entry in _VERTEX_ENTRIES.items()
        for name, x in _BAD_VERTICES.items()
    ]
    + [
        pytest.param(call, InputError, re.escape(message), id=name)
        for name, (call, message) in _BAD_POINTS.items()
    ],
)
def test_malformed_vertex_lists_are_input_errors(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()


def test_octahedron_adjacency_pattern():
    verts = enumerate_vertices(OCTA)
    for u, v in combinations(verts, 2):
        verdict = are_adjacent(verts, u, v)
        complementary = all(a + b == 1 for a, b in zip(u, v))
        assert verdict.adjacent == (not complementary)
        if verdict.adjacent:
            verify_face_certificate([u, v], verts, verdict.face_certificate)
        else:
            assert verdict.midpoint_certificate is not None
            midpoint = tuple(Fraction(a + b, 2) for a, b in zip(u, v))
            rest = [x for x in verts if x != u and x != v]
            support = tuple(
                (rest.index(verts[i]), w)
                for i, w in verdict.midpoint_certificate.support
            )
            verify_hull_certificate(midpoint, rest, HullCertificate(support))


def test_adjacency_argument_errors():
    verts = enumerate_vertices(OCTA)
    with pytest.raises(EqualVertices):
        are_adjacent(verts, verts[0], verts[0])
    with pytest.raises(VertexNotInSet):
        are_adjacent(verts, verts[0], (1, 0, 0, 0))


def test_segment_fallback_without_midpoint_symmetry():
    # The midpoint criterion fails on this vertex set: 000 and 111 are
    # not adjacent, yet their midpoint misses the hull of the rest.  The
    # segment meets that hull only at (1/3, 1/3, 1/3).
    verts = [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)]
    verdict = are_adjacent(verts, (0, 0, 0), (1, 1, 1))
    assert not verdict.adjacent
    assert verdict.midpoint_certificate is None
    seg = verdict.segment_certificate
    assert seg is not None
    assert seg.alpha == Fraction(2, 3)
    assert seg.point == (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))
    weights = dict(seg.support)
    assert set(weights) == {1, 2, 3}
    assert all(w == Fraction(1, 3) for w in weights.values())


def test_part_simplex_all_pairs_adjacent():
    verts = enumerate_vertices(part(BinaryMatrix.from_rows([[1, 1, 1]])))
    for u, v in combinations(verts, 2):
        assert are_adjacent(verts, u, v).adjacent


@given(st.integers(min_value=1, max_value=4), st.data())
def test_hull_routes_agree(d, data):
    seed = data.draw(st.integers(min_value=0, max_value=10_000))
    rng = random.Random(seed)
    count = rng.randint(1, min(6, 1 << d))
    verts = random_vertex_set(rng, d, count)
    point = tuple(Fraction(rng.randint(-2, 6), 4) for _ in range(d))
    fast = in_convex_hull(point, verts)
    slow = in_convex_hull_bruteforce(point, verts)
    assert (fast is None) == (slow is None)


@given(st.integers(min_value=2, max_value=4), st.data())
def test_coordinate_slices_are_faces(d, data):
    seed = data.draw(st.integers(min_value=0, max_value=10_000))
    rng = random.Random(seed)
    count = rng.randint(2, min(8, 1 << d))
    verts = random_vertex_set(rng, d, count)
    coord = rng.randrange(d)
    value = rng.randint(0, 1)
    face = [x for x in verts if x[coord] == value]
    # A coordinate slice is always a face: the hyperplane fixing that
    # coordinate supports it exactly.
    cert = is_face(face, verts)
    assert cert is not None
    verify_face_certificate(face, verts, cert)
