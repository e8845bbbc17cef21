import re
from fractions import Fraction
from itertools import combinations

import pytest
import witness_reference as ref
from hypothesis import given, settings
from hypothesis import strategies as st

from polyadj.errors import (
    DegeneratePair,
    DimensionMismatch,
    DuplicatePairs,
    EvenFamilyBlocked,
    InputError,
    InvariantViolation,
    NotInStablePolytope,
    TooFewPairs,
    UnequalSums,
)
from polyadj.generators import all_graphs
from polyadj.hull import enumerate_vertices
from polyadj.model import Graph, bits_from_int, stable
from polyadj.witness import (
    build_pair_family,
    construct_witness,
    find_t,
    pair_extension_oracle,
    refute_face,
)

CUBE = Graph(3, [])
CUBE_PAIRS = [
    ((0, 0, 0), (1, 1, 1)),
    ((1, 1, 0), (0, 0, 1)),
    ((1, 0, 1), (0, 1, 0)),
]


def test_cube_family_structure():
    family = build_pair_family(CUBE, CUBE_PAIRS)
    # every pair oriented to a one at coordinate 0, the smallest active one
    assert family.words == ((0b111, 0b000), (0b110, 0b001), (0b101, 0b010))
    assert family.active == {0, 1, 2}
    assert family.total == (1, 1, 1)


def test_cube_orientation_ignores_pair_order():
    shuffled = [(v, u) for u, v in CUBE_PAIRS]
    family = build_pair_family(CUBE, shuffled)
    assert family.words == build_pair_family(CUBE, CUBE_PAIRS).words


def test_cube_find_t():
    family = build_pair_family(CUBE, CUBE_PAIRS)
    t, s_set = find_t(family)
    assert t == 2
    assert s_set == {0}
    universe = set()
    for y, _ in family.words:
        # the active support of the pair's designated member
        u = frozenset(i for i, b in enumerate(bits_from_int(y & family.ones, 3)) if b)
        universe.add(u)
        universe.add(family.active - u)
    assert s_set not in universe


def test_cube_witness():
    family = build_pair_family(CUBE, CUBE_PAIRS)
    t, s_set = find_t(family)
    witness = construct_witness(family, s_set, t)
    assert witness.y_star == (1, 0, 0)
    assert witness.y_star_bar == (0, 1, 1)
    new_pair = {witness.y_star, witness.y_star_bar}
    assert all({u, v} != new_pair for u, v in CUBE_PAIRS)


def test_cube_refutation_midpoint():
    refutation = refute_face(CUBE, CUBE_PAIRS)
    assert refutation.witness.t == 2
    assert refutation.midpoint == (Fraction(1, 2),) * 3


def test_witness_support_must_be_active():
    family = build_pair_family(CUBE, CUBE_PAIRS)
    with pytest.raises(InputError):
        construct_witness(family, frozenset({5}))


def test_too_few_pairs():
    with pytest.raises(TooFewPairs):
        build_pair_family(CUBE, CUBE_PAIRS[:2])


def test_unequal_sums():
    pairs = CUBE_PAIRS[:2] + [((1, 0, 0), (0, 1, 0))]
    with pytest.raises(UnequalSums) as exc:
        build_pair_family(CUBE, pairs)
    assert "2" in str(exc.value)


def test_not_in_stable_polytope():
    g = Graph(3, [(0, 1)])
    with pytest.raises(NotInStablePolytope):
        build_pair_family(g, CUBE_PAIRS)


def test_duplicate_pairs():
    pairs = CUBE_PAIRS + [(CUBE_PAIRS[0][1], CUBE_PAIRS[0][0])]
    with pytest.raises(DuplicatePairs):
        build_pair_family(CUBE, pairs)


def test_degenerate_pair():
    g = Graph(2, [])
    pairs = [
        ((0, 1), (0, 1)),
        ((0, 0), (0, 0)),
        ((1, 1), (1, 1)),
    ]
    with pytest.raises(DegeneratePair):
        build_pair_family(g, pairs)


def test_dimension_mismatch():
    pairs = [((0, 0), (1, 1)), ((0, 1), (1, 0)), ((1, 1), (0, 0))]
    with pytest.raises((DimensionMismatch, DuplicatePairs)):
        build_pair_family(CUBE, pairs)


def test_whole_cube_pair_family_has_no_witness():
    # All four complementary pairs exhaust the vertex set; the whole
    # polytope is an improper face of itself, so no new pair can exist.
    # The family is even, outside the theorem, so that is bad input.
    pairs = [
        ((0, 0, 0), (1, 1, 1)),
        ((0, 0, 1), (1, 1, 0)),
        ((0, 1, 0), (1, 0, 1)),
        ((0, 1, 1), (1, 0, 0)),
    ]
    family = build_pair_family(CUBE, pairs)
    assert len(family.words) == 4
    for call in (lambda: find_t(family), lambda: refute_face(CUBE, pairs)):
        with pytest.raises(EvenFamilyBlocked) as exc:
            call()
        assert isinstance(exc.value, InputError)
        assert not isinstance(exc.value, InvariantViolation)


def test_even_family_of_six_succeeds():
    g = Graph(4, [])
    supports = [
        {0, 1},
        {0, 2},
        {0, 3},
        {0, 1, 2},
        {0, 1, 3},
        {0, 2, 3},
    ]
    pairs = []
    for sup in supports:
        y = tuple(1 if i in sup else 0 for i in range(4))
        pairs.append((y, tuple(1 - b for b in y)))
    refutation = refute_face(g, pairs)
    assert refutation.witness.t == 2
    assert refutation.witness.y_star == (1, 1, 1, 1)


def test_pair_extension_oracle_cube():
    pairs = pair_extension_oracle(CUBE, (1, 1, 1))
    assert len(pairs) == 4
    for y, ybar in pairs:
        assert tuple(a + b for a, b in zip(y, ybar)) == (1, 1, 1)
        assert y < ybar


def test_pair_extension_oracle_edge():
    g = Graph(2, [(0, 1)])
    assert pair_extension_oracle(g, (1, 1)) == [((0, 1), (1, 0))]


def test_pair_extension_oracle_zero_sum():
    assert pair_extension_oracle(CUBE, (0, 0, 0)) == []


def test_pair_extension_oracle_validates_sums():
    with pytest.raises(InputError):
        pair_extension_oracle(CUBE, (3, 0, 0))
    with pytest.raises(DimensionMismatch):
        pair_extension_oracle(CUBE, (1, 1))


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: refute_face(CUBE, 5), "pair family 5 is not a sequence", id="family-int"),
        pytest.param(lambda: refute_face(CUBE, [5, 6, 7]), "family entry 0 is not a pair: 5", id="pair-int"),
        pytest.param(
            lambda: refute_face(CUBE, [p + ((0, 0, 0),) for p in CUBE_PAIRS]),
            "family entry 0 is not a pair: ((0, 0, 0), (1, 1, 1), (0, 0, 0))",
            id="triples",
        ),
        pytest.param(
            lambda: pair_extension_oracle(CUBE, 5), "coordinate sum 5 is not a sequence", id="sum-int"
        ),
        pytest.param(
            lambda: pair_extension_oracle(Graph(2, ()), ("1", 1)),
            "coordinate sums must be 0, 1, or 2, got '1'",
            id="sum-str",
        ),
        pytest.param(
            lambda: pair_extension_oracle(Graph(2, ()), (1.0, 1)),
            "coordinate sums must be 0, 1, or 2, got 1.0",
            id="sum-float",
        ),
    ],
)
def test_malformed_input_is_input_error(call, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        call()


def test_refutation_witness_is_new_and_valid():
    g = Graph(4, [(0, 1)])
    verts = enumerate_vertices(stable(g))
    pairs = pair_extension_oracle(g, (1, 1, 1, 1))
    assert len(pairs) >= 3
    family = pairs[:3]
    refutation = refute_face(g, family)
    w = refutation.witness
    assert w.y_star in verts and w.y_star_bar in verts
    new_pair = {w.y_star, w.y_star_bar}
    assert all({u, v} != new_pair for u, v in family)
    assert (w.y_star, w.y_star_bar) in pairs or (w.y_star_bar, w.y_star) in pairs


def test_no_complete_sum_class_is_odd_and_large():
    # If a complete equal-sum class had an odd size of three or more,
    # the witness construction applied to it would mint a pair outside
    # the class, contradicting completeness.  So such classes never
    # exist, which also protects the sweeps' sampling assumptions.
    for nv in (2, 3, 4):
        for g in all_graphs(nv):
            verts = enumerate_vertices(stable(g))
            sums = {}
            for i, y in enumerate(verts):
                for z in verts[i + 1 :]:
                    key = tuple(a + b for a, b in zip(y, z))
                    sums[key] = sums.get(key, 0) + 1
            for count in sums.values():
                assert not (count >= 3 and count % 2 == 1)


# ---- differential test against the tuple reference ----------------------

MUTATIONS = (
    "none", "none", "none", "non01", "length", "unstable", "unequal",
    "flip", "duplicate", "degenerate", "short", "lists",
)


@st.composite
def witness_cases(draw):
    """A graph on at most 8 vertices, a pair list drawn from one of its
    equal-sum classes (odd or even, in random orientation) with at most
    one defect, a support set for construct_witness and a sum vector."""
    # small graphs have few pairs per class, so sizes 4-8 come more often
    nv = draw(st.sampled_from(range(9)) | st.sampled_from(range(4, 9)))
    slots = list(combinations(range(nv), 2))
    edges = draw(st.lists(st.sampled_from(slots), unique=True)) if slots else []
    g = Graph(nv, edges)
    verts = enumerate_vertices(stable(g))
    classes: dict[tuple[int, ...], list] = {}
    for u, v in combinations(verts, 2):
        classes.setdefault(tuple(a + b for a, b in zip(u, v)), []).append((u, v))
    large = [c for c in classes.values() if len(c) >= 3]
    pool = draw(st.sampled_from(large or list(classes.values()) or [[((), ())]]))
    size = draw(st.sampled_from(range(min(3, len(pool)), min(7, len(pool)) + 1)))
    chosen = draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size, unique=True))
    total = tuple(a + b for a, b in zip(*pool[0]))
    pairs = [(v, u) if draw(st.booleans()) else (u, v) for u, v in chosen]
    mutation = draw(st.sampled_from(MUTATIONS))
    at = draw(st.integers(min_value=0, max_value=len(pairs) - 1))
    u, v = pairs[at]
    if mutation == "non01":
        k = draw(st.integers(min_value=0, max_value=nv))
        pairs[at] = (u[:k] + (draw(st.sampled_from((2, -1))),) + u[k + 1 :], v)
    elif mutation == "length":
        pairs[at] = (u, v + (0,) if draw(st.booleans()) else v[:-1])
    elif mutation == "unstable":
        pairs[at] = (tuple(draw(st.lists(st.integers(0, 1), min_size=nv, max_size=nv))), v)
    elif mutation == "unequal":
        pairs[at] = (draw(st.sampled_from(verts)), draw(st.sampled_from(verts)))
    elif mutation == "flip":
        # the same coordinate flipped in both members: the sum moves
        # between 0 and 2 there while u xor v stays
        agree = [k for k in range(nv) if u[k] == v[k]]
        if agree:
            k = draw(st.sampled_from(agree))
            pairs[at] = tuple(x[:k] + (1 - x[k],) + x[k + 1 :] for x in (u, v))
    elif mutation == "duplicate":
        pairs.insert(at, (v, u) if draw(st.booleans()) else (u, v))
    elif mutation == "degenerate":
        pairs.insert(0, (u, u))
    elif mutation == "short":
        pairs = pairs[:2]
    elif mutation == "lists":
        pairs = [[list(u), list(v)] for u, v in pairs]
    # mostly inside the active set, sometimes one coordinate outside it
    inside = [i for i, v in enumerate(total) if v == 1]
    support = draw(st.frozensets(st.sampled_from(inside + [nv])))
    sums = draw(
        st.one_of(
            st.just(total),
            st.lists(st.integers(-1, 3), min_size=max(nv - 1, 0), max_size=nv + 1).map(tuple),
        )
    )
    return g, pairs, support, sums


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:
        return "raised", type(exc), str(exc)


def _family_view(family):
    # the oriented pairs unpacked from the words, by the reference's own loop
    d = family.graph.vertex_count
    pairs = tuple((ref.bits_from_int(u, d), ref.bits_from_int(v, d)) for u, v in family.words)
    fields = (family.graph, pairs, family.total, family.active)
    return fields, tuple(type(f) for f in fields)


def _reference_family_view(old):
    fields = (old.graph, old.pairs, old.total, old.active)
    return fields, tuple(type(f) for f in fields)


def _same(new, old, view=lambda x: x, old_view=None):
    if new[0] == "ok" and old[0] == "ok":
        assert view(new[1]) == (old_view or view)(old[1])
    else:
        assert new == old


@settings(max_examples=400, deadline=None)
@given(witness_cases())
def test_matches_tuple_reference(case):
    g, pairs, support, sums = case
    new = _outcome(build_pair_family, g, pairs)
    old = _outcome(ref.build_pair_family, g, pairs)
    _same(new, old, _family_view, _reference_family_view)
    if new[0] == "ok":
        new_t, old_t = _outcome(find_t, new[1]), _outcome(ref.find_t, old[1])
        _same(new_t, old_t)
        if new_t[0] == "ok":
            t, s_set = new_t[1]
            _same(
                _outcome(construct_witness, new[1], s_set, t),
                _outcome(ref.construct_witness, old[1], s_set, t),
            )
        _same(
            _outcome(construct_witness, new[1], support),
            _outcome(ref.construct_witness, old[1], support),
        )
    _same(
        _outcome(refute_face, g, pairs),
        _outcome(ref.refute_face, g, pairs),
        lambda r: (_family_view(r.family), r.witness, r.midpoint),
        lambda r: (_reference_family_view(r.family), r.witness, r.midpoint),
    )
    _same(
        _outcome(pair_extension_oracle, g, sums),
        _outcome(ref.pair_extension_oracle, g, sums),
    )
