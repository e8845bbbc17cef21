import os
import re
import subprocess
import sys
from fractions import Fraction
from itertools import permutations, product
from pathlib import Path

import fraction_reference
import pytest
import witness_reference
from hypothesis import given
from hypothesis import strategies as st

import polyadj
from polyadj.errors import (
    DimensionMismatch,
    EmptyMatrix,
    InputError,
    InvariantViolation,
    WrongRowWeight,
)
from polyadj.model import (
    AffineMap,
    BinaryMatrix,
    Graph,
    PolytopeCode,
    as_bits,
    bits_from_int,
    bits_to_int,
    complement,
    cover,
    dcp,
    dimension,
    membership,
    npadj,
    pack,
    part,
    stable,
    stable_edge_masks,
    validate_code,
)
from polyadj.reductions import stable_to_part


def test_matrix_from_rows_normalizes():
    a = BinaryMatrix.from_rows([[1, 0, 1], [0, 1, 0]])
    assert a.nrows == 2
    assert a.ncols == 3
    assert a.row_support(0) == (0, 2)
    assert a.row_weight(1) == 1


def test_matrix_rejects_empty():
    with pytest.raises(EmptyMatrix):
        BinaryMatrix.from_rows([])


def test_matrix_rejects_ragged():
    with pytest.raises(DimensionMismatch):
        BinaryMatrix.from_rows([[1, 0], [1, 0, 1]])


@given(
    st.lists(
        st.one_of(
            st.sampled_from([0, 1, True, False]),
            st.integers(),
            st.floats(allow_nan=False),
            st.fractions(),
            st.text(max_size=1),
        ),
        max_size=8,
    )
)
def test_as_bits_takes_only_the_ints_0_and_1(values):
    if all(type(v) in (int, bool) and v in (0, 1) for v in values):
        bits = as_bits(values)
        assert bits == tuple(map(int, values))
        assert all(type(b) is int for b in bits)
    else:
        with pytest.raises(InputError, match=" has an entry outside 0/1$"):
            as_bits(values)


def test_graph_normalizes_edges():
    g = Graph(4, [(2, 0), (3, 1)])
    assert g.edges == ((0, 2), (1, 3))
    assert g.edge_count == 2


def test_graph_rejects_bad_edges():
    with pytest.raises(InputError, match=r"^self-loop at vertex 0$"):
        Graph(2, [(0, 0)])
    with pytest.raises(InputError, match=r"^edge \(0, 2\) has an endpoint outside 0\.\.1$"):
        Graph(2, [(0, 2)])
    with pytest.raises(InputError, match=r"^edge \(-1, 0\) has an endpoint outside 0\.\.1$"):
        Graph(2, [(0, -1)])
    with pytest.raises(InputError, match=r"^duplicate edge \(0, 1\)$"):
        Graph(2, [(0, 1), (1, 0)])


@pytest.mark.parametrize("edge", [(0, 1, 2), 5, (0,)], ids=["triple", "int", "single"])
def test_graph_edge_must_be_a_pair(edge):
    with pytest.raises(InputError, match=f"^edge 1 is not a pair: {re.escape(repr(edge))}$"):
        Graph(3, [(0, 1), edge])


def test_graph_edge_list_must_be_a_sequence():
    with pytest.raises(InputError, match="^edge list 5 is not a sequence$"):
        Graph(3, 5)


def test_equal_edge_sets_give_equal_graphs():
    edges = [(0, 1), (1, 2), (0, 3)]
    reference = Graph(4, tuple(sorted(edges)))
    for order in permutations(edges):
        for flips in product((False, True), repeat=len(edges)):
            g = Graph(4, [(v, u) if f else (u, v) for (u, v), f in zip(order, flips)])
            assert g == reference
            assert hash(g) == hash(reference)
            assert g.edges == ((0, 1), (0, 3), (1, 2))
            assert stable_to_part(g) == stable_to_part(reference)


@pytest.mark.parametrize(
    "build, message",
    [
        pytest.param(lambda: BinaryMatrix(((0, 1),), 2.0), "column count 2.0", id="ncols-float"),
        pytest.param(lambda: Graph(2.0, ((0, 1),)), "vertex count 2.0", id="count-float"),
        pytest.param(lambda: Graph(3, ((0.5, 1),)), "edge endpoint 0.5", id="endpoint-float"),
    ],
)
def test_counts_and_indices_must_be_ints(build, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)} is not an integer$"):
        build()


def test_graph_rejects_negative_count_and_duplicate_edges():
    with pytest.raises(InputError, match="^vertex count must be nonnegative$"):
        Graph(-1, ())
    with pytest.raises(InputError, match=re.escape("duplicate edge (0, 1)")):
        Graph(3, ((0, 1), (0, 1)))


def test_bits_round_trip_examples():
    # Coordinate 0 is the most significant position.
    assert bits_from_int(0b101, 3) == (1, 0, 1)
    assert bits_to_int((1, 0, 1)) == 5
    assert complement((1, 0, 1)) == (0, 1, 0)


@given(st.integers(min_value=0, max_value=24), st.data())
def test_bits_round_trip(dim, data):
    word = data.draw(st.integers(min_value=0, max_value=(1 << dim) - 1))
    bits = bits_from_int(word, dim)
    assert bits == witness_reference.bits_from_int(word, dim)
    assert bits_to_int(bits) == word == witness_reference.bits_to_int(bits)
    # bits above dim are dropped, as the shift-and-mask unpack drops them
    wide = data.draw(st.integers(min_value=-(1 << 30), max_value=1 << 30))
    assert bits_from_int(wide, dim) == witness_reference.bits_from_int(wide, dim)


def test_bits_at_zero_and_cap_dimension():
    assert bits_from_int(0, 0) == ()
    assert bits_from_int(5, 0) == ()
    assert bits_to_int(()) == 0
    assert bits_from_int((1 << 24) - 1, 24) == (1,) * 24
    assert bits_from_int(1 << 23, 24) == (1,) + (0,) * 23
    assert bits_to_int((0,) * 23 + (1,)) == 1


def test_stable_edge_masks_follow_constraint_rows():
    g = Graph(4, [(0, 1), (2, 3), (0, 3)])
    masks = stable_edge_masks(g)
    assert masks == [0b1100, 0b1001, 0b0011]
    for word in range(16):
        x = bits_from_int(word, 4)
        assert membership(stable(g), x) == all(word & m != m for m in masks)
    assert stable_edge_masks(Graph(0, ())) == []


def test_dimension_per_family():
    a = BinaryMatrix.from_rows([[1, 1, 1]])
    assert dimension(part(a)) == 3
    assert dimension(cover(a)) == 3
    assert dimension(pack(a)) == 3
    assert dimension(npadj(a)) == 12
    b = BinaryMatrix.from_rows([[1, 1, 1, 1]])
    assert dimension(dcp(b)) == 4
    assert dimension(stable(Graph(5, [(0, 1)]))) == 5


def test_validate_code_errors():
    with pytest.raises(WrongRowWeight, match="^row 0 must have exactly four ones$") as err:
        validate_code(dcp(BinaryMatrix.from_rows([[1, 1, 1, 0]])))
    assert (err.value.row, err.value.expected) == (0, 4)
    with pytest.raises(WrongRowWeight, match="exactly three ones") as err:
        validate_code(npadj(BinaryMatrix.from_rows([[1, 1, 1, 0, 0], [1, 1, 0, 1, 1]])))
    assert (err.value.row, err.value.expected) == (1, 3)
    with pytest.raises(EmptyMatrix):
        validate_code(npadj(BinaryMatrix((), 3)))
    # the empty matrix is fine for the families without a row condition
    validate_code(dcp(BinaryMatrix((), 3)))


def test_membership_part():
    a = BinaryMatrix.from_rows([[1, 1, 1]])
    assert membership(part(a), (0, 1, 0))
    assert not membership(part(a), (1, 1, 0))
    assert not membership(part(a), (0, 0, 0))


def test_membership_checks_dimension():
    a = BinaryMatrix.from_rows([[1, 1, 1]])
    with pytest.raises(DimensionMismatch):
        membership(part(a), (0, 1))


def test_membership_stable():
    g = Graph(3, [(0, 1), (1, 2)])
    assert membership(stable(g), (1, 0, 1))
    assert not membership(stable(g), (1, 1, 0))


def test_affine_identity_and_compose():
    ident = AffineMap([(1, 0, 0), (0, 1, 0), (0, 0, 1)], (0, 0, 0))
    assert ident.apply_bits((1, 0, 1)) == (1, 0, 1)
    shift = AffineMap([(-1, 0, 0), (0, 1, 0), (0, 0, 1)], (1, 0, 0))
    composed = shift.compose(ident)
    assert composed.apply_bits((1, 0, 1)) == (0, 0, 1)
    assert composed.source_dim == 3 and composed.target_dim == 3


def test_affine_rejects_non_binary_image():
    doubler = AffineMap([(2, 0), (0, 1)], (0, 0))
    with pytest.raises(InvariantViolation):
        doubler.apply_bits((1, 0))
    # apply itself is exact and unrestricted.
    assert doubler.apply((1, 0)) == (2, 0)


@st.composite
def composable_maps(draw):
    """An inner map of random integer rows and an outer map that takes
    its image, mostly 0/1 coefficients as the reductions use, plus a
    0/1 point for the inner map."""
    coeff = st.sampled_from([0, 0, 0, 1, 1, -1, 2])
    s, m, t = (draw(st.integers(min_value=lo, max_value=5)) for lo in (0, 1, 1))
    inner = (
        draw(st.lists(st.lists(coeff, min_size=s, max_size=s), min_size=m, max_size=m)),
        draw(st.lists(coeff, min_size=m, max_size=m)),
    )
    outer = (
        draw(st.lists(st.lists(coeff, min_size=m, max_size=m), min_size=t, max_size=t)),
        draw(st.lists(coeff, min_size=t, max_size=t)),
    )
    x = tuple(draw(st.lists(st.integers(0, 1), min_size=s, max_size=s)))
    return inner, outer, x


def _apply_bits_or_error(amap, x):
    try:
        return amap.apply_bits(x)
    except InvariantViolation as exc:
        return str(exc)


@given(composable_maps())
def test_affine_map_matches_fraction_reference(case):
    (inner_rows, inner_offset), (outer_rows, outer_offset), x = case
    inner = AffineMap(inner_rows, inner_offset)
    outer = AffineMap(outer_rows, outer_offset)
    ref_inner = fraction_reference.AffineMap.from_int_rows(inner_rows, inner_offset)
    ref_outer = fraction_reference.AffineMap.from_int_rows(outer_rows, outer_offset)
    assert inner.apply(x) == ref_inner.apply(x)
    assert _apply_bits_or_error(inner, x) == _apply_bits_or_error(ref_inner, x)
    composed = outer.compose(inner)
    ref_composed = ref_outer.compose(ref_inner)
    assert composed.matrix == ref_composed.matrix
    assert composed.offset == ref_composed.offset
    assert [str(v) for v in composed.offset] == [str(v) for v in ref_composed.offset]
    assert composed.apply(x) == outer.apply(inner.apply(x))


def test_affine_map_keeps_integer_tuples():
    amap = AffineMap([[1, 0], [-1, 1]], [0, 1])
    assert amap.matrix == ((1, 0), (-1, 1)) and amap.offset == (0, 1)
    with pytest.raises(TypeError):
        AffineMap([[Fraction(1, 2)]], [0])
    with pytest.raises(InputError, match="ragged"):
        AffineMap([[1, 0], [1]], [0, 0])
    with pytest.raises(DimensionMismatch):
        AffineMap([[1]], [0, 0])


def test_codes_are_validated_when_built():
    with pytest.raises(WrongRowWeight):
        npadj(BinaryMatrix.from_rows([[1, 1, 0]]))
    with pytest.raises(InputError, match="unknown family"):
        PolytopeCode("simplex", BinaryMatrix.from_rows([[1]]))
    with pytest.raises(InputError, match="take a graph"):
        PolytopeCode("stable", BinaryMatrix.from_rows([[1]]))


_COUNT_FRACTIONS_AT_IMPORT = """
import fractions
made = 0
new = fractions.Fraction.__new__
def counting_new(cls, *args, **kwargs):
    global made
    made += 1
    return new(cls, *args, **kwargs)
fractions.Fraction.__new__ = counting_new
fractions.Fraction(1, 2)
assert made == 1, "the counter must see a Fraction being built"
import polyadj, polyadj.cli, polyadj.sweeps
print(made - 1)
"""


def test_import_builds_no_fraction():
    # Fractions built at import time change the speed of later Fraction
    # arithmetic in the same process, so importing the package must
    # build none; a fresh interpreter sees the imports run.
    src = str(Path(polyadj.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", _COUNT_FRACTIONS_AT_IMPORT],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert out == "0\n"
