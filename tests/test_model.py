import pytest
import witness_reference
from hypothesis import given
from hypothesis import strategies as st

from polyadj.errors import (
    DcpRowWeight,
    DimensionMismatch,
    EmptyMatrix,
    InputError,
    InvariantViolation,
    NPadjEmptyMatrix,
    NPadjRowWeight,
)
from polyadj.model import (
    AffineMap,
    BinaryMatrix,
    Graph,
    NPadjLayout,
    DcpLayout,
    apply_affine,
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


def test_graph_normalizes_edges():
    g = Graph.from_edges(4, [(2, 0), (3, 1)])
    assert g.edges == ((0, 2), (1, 3))
    assert g.edge_count == 2


def test_graph_rejects_bad_edges():
    with pytest.raises(InputError):
        Graph.from_edges(2, [(0, 0)])
    with pytest.raises(InputError):
        Graph.from_edges(2, [(0, 2)])


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
    g = Graph.from_edges(4, [(0, 1), (2, 3), (0, 3)])
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
    assert dimension(stable(Graph.from_edges(5, [(0, 1)]))) == 5


def test_validate_code_errors():
    with pytest.raises(DcpRowWeight):
        validate_code(dcp(BinaryMatrix.from_rows([[1, 1, 1]])))
    with pytest.raises(NPadjRowWeight):
        validate_code(npadj(BinaryMatrix.from_rows([[1, 1, 0, 1, 1]])))
    with pytest.raises(NPadjEmptyMatrix):
        validate_code(npadj(BinaryMatrix((), 3)))


def test_npadj_layout_round_trip():
    layout = NPadjLayout(4)
    assert layout.dim == 15
    names = [layout.name(i) for i in range(layout.dim)]
    assert names[0:3] == ["y1", "y2", "y3"]
    assert names[3] == "x1" and names[7] == "xbar1" and names[11] == "xp1"
    for i in range(layout.dim):
        assert layout.index(layout.name(i)) == i


def test_dcp_layout_shifts():
    layout = DcpLayout(3)
    assert layout.dim == 14
    assert layout.name(0) == "a" and layout.name(1) == "b"
    assert layout.name(2) == "y1"
    assert layout.index("xp2") == layout.shifted(NPadjLayout(3).index("xp2"))


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
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert membership(stable(g), (1, 0, 1))
    assert not membership(stable(g), (1, 1, 0))


def test_affine_identity_and_compose():
    ident = AffineMap.identity(3)
    assert ident.apply_bits((1, 0, 1)) == (1, 0, 1)
    shift = AffineMap.from_int_rows([(-1, 0, 0), (0, 1, 0), (0, 0, 1)], (1, 0, 0))
    composed = shift.compose(ident)
    assert composed.apply_bits((1, 0, 1)) == (0, 0, 1)
    assert composed.source_dim == 3 and composed.target_dim == 3


def test_affine_rejects_non_binary_image():
    doubler = AffineMap.from_int_rows([(2, 0), (0, 1)], (0, 0))
    with pytest.raises(InvariantViolation):
        doubler.apply_bits((1, 0))
    # apply itself is exact and unrestricted.
    assert apply_affine(doubler, (1, 0)) == (2, 0)
