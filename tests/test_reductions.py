import dataclasses

import fraction_reference
import pytest
import reduction_reference

from polyadj.errors import (
    CoordinateOutOfRange,
    EmptyGraph,
    EmptyMatrix,
    InputError,
    NoEdges,
    WrongRowWeight,
)
from polyadj.generators import all_graphs
from polyadj.hull import enumerate_vertices
from polyadj.model import AffineMap, BinaryMatrix, Graph
from polyadj.reductions import (
    compose,
    face_slice,
    npadj_to_dcp,
    part_to_npadj,
    reduction_chain,
    stable_to_part,
    verify_reduction,
)
from polyadj.sweeps import matsui_instance_family

EDGE = Graph(2, [(0, 1)])
PATH3 = Graph(3, [(0, 1), (1, 2)])
FAMILY = matsui_instance_family()


def test_stable_to_part_single_edge():
    art = stable_to_part(EDGE)
    assert art.target.family == "part"
    assert art.target.params.rows == ((1, 1, 1),)
    assert art.face_fixes == ()
    assert verify_reduction(art).ok


def test_stable_to_part_path():
    art = stable_to_part(PATH3)
    assert art.target.params.rows == ((1, 1, 0, 1, 0), (0, 1, 1, 0, 1))
    assert verify_reduction(art).ok


def test_stable_to_part_images_extend_with_slacks():
    art = stable_to_part(PATH3)
    image = art.amap.apply_bits((1, 0, 1))
    assert image == (1, 0, 1, 0, 0)
    image = art.amap.apply_bits((0, 0, 0))
    assert image == (0, 0, 0, 1, 1)


def test_part_to_npadj_structure():
    a = BinaryMatrix.from_rows([[1, 1, 1]])
    art = part_to_npadj(a)
    assert art.target.family == "npadj"
    assert art.face_fixes == ((0, 0), (1, 1), (2, 1))
    image = art.amap.apply_bits((0, 1, 0))
    # Selector pattern, primal copy, complement, shadow copy.
    assert image == (0, 1, 1) + (0, 1, 0) + (1, 0, 1) + (0, 1, 0)
    assert verify_reduction(art).ok


def test_npadj_to_dcp_shape_and_weights():
    a = BinaryMatrix.from_rows([[1, 1, 1, 0], [0, 1, 1, 1]])
    art = npadj_to_dcp(a)
    b = art.target.params
    n, m = a.ncols, a.nrows
    assert (b.nrows, b.ncols) == (2 * n + m, 3 * n + 5)
    assert all(b.row_weight(i) == 4 for i in range(b.nrows))
    assert art.face_fixes == ((0, 0), (1, 1))


def test_part_to_npadj_matches_hand_written_layout():
    assert len(FAMILY) == 1073
    for a in FAMILY:
        derived = part_to_npadj(a)
        reference, fixes = reduction_reference.part_to_npadj(a)
        assert derived.target == reference.target
        assert derived.amap == reference.amap
        assert derived.face_fixes == fixes


def test_npadj_to_dcp_matches_hand_written_layout():
    assert len(FAMILY) == 1073
    for a in FAMILY:
        derived = npadj_to_dcp(a)
        reference, fixes = reduction_reference.npadj_to_dcp(a)
        assert derived.target == reference.target
        assert derived.amap == reference.amap
        assert derived.face_fixes == fixes


def test_composed_chain_map_matches_fraction_reference():
    graphs = [g for nv in (2, 3, 4) for g in all_graphs(nv, min_edges=1)]
    assert len(graphs) == 71
    for g in graphs:
        arts = reduction_chain(g)
        ref = None
        for _, art in arts.stages:
            stage = fraction_reference.AffineMap.from_int_rows(art.amap.matrix, art.amap.offset)
            ref = stage if ref is None else stage.compose(ref)
        composed = arts.composed.amap
        assert composed.matrix == ref.matrix and composed.offset == ref.offset
        # the CLI prints the coefficients with str()
        assert [[str(c) for c in row] for row in composed.matrix] == [
            [str(c) for c in row] for row in ref.matrix
        ]
        assert arts.composed.face_fixes == ((0, 0), (1, 1), (2, 0), (3, 1), (4, 1))


def test_chain_on_single_edge():
    arts = reduction_chain(EDGE)
    b = arts.composed.target.params
    assert (b.nrows, b.ncols) == (7, 14)
    assert [name for name, _ in arts.stages] == ["stable-part", "part-npadj", "npadj-dcp"]
    for art in (*(art for _, art in arts.stages), arts.composed):
        assert verify_reduction(art, max_dim=40).ok


def test_chain_on_path():
    arts = reduction_chain(PATH3)
    b = arts.composed.target.params
    # n = 3 vertices + 2 slack columns, m = 2 rows.
    assert (b.nrows, b.ncols) == (12, 20)
    assert verify_reduction(arts.composed, max_dim=40).ok


def test_composed_fixes_accumulate():
    arts = reduction_chain(EDGE)
    assert arts.composed.face_fixes == ((0, 0), (1, 1), (2, 0), (3, 1), (4, 1))


def test_input_errors():
    with pytest.raises(NoEdges):
        stable_to_part(Graph(3, []))
    with pytest.raises(EmptyGraph):
        stable_to_part(Graph(0, []))
    with pytest.raises(WrongRowWeight, match="exactly three ones"):
        part_to_npadj(BinaryMatrix.from_rows([[1, 1, 0]]))
    with pytest.raises(WrongRowWeight, match="exactly three ones"):
        npadj_to_dcp(BinaryMatrix.from_rows([[1, 1, 1, 1]]))
    with pytest.raises(EmptyMatrix):
        part_to_npadj(BinaryMatrix((), 3))
    with pytest.raises(EmptyMatrix):
        npadj_to_dcp(BinaryMatrix((), 3))


def test_compose_requires_matching_codes():
    first = stable_to_part(EDGE)
    other = stable_to_part(PATH3)
    with pytest.raises(InputError):
        compose(other, part_to_npadj(first.target.params))


def test_face_slice_selects_fixed_coordinates():
    a = BinaryMatrix.from_rows([[1, 1, 1]])
    art = part_to_npadj(a)
    verts = enumerate_vertices(art.target)
    sliced = face_slice(art.target, art.face_fixes)
    assert sliced == sorted(x for x in verts if x[0] == 0 and x[1] == 1 and x[2] == 1)
    with pytest.raises(CoordinateOutOfRange):
        face_slice(art.target, ((99, 0),))


@pytest.mark.parametrize(
    "fixes, message",
    [
        (((1.0, 0),), "fix coordinate 1.0 is not an integer"),
        (((0, 0.5),), "fix value 0.5 is not an integer"),
        (((0, 2),), "fix value must be 0/1"),
        (5, "face fixes 5 is not a sequence"),
        (((0,),), r"face fix 0 is not a pair: \(0,\)$"),
        (((0, 1), (0, 0, 1)), r"face fix 1 is not a pair: \(0, 0, 1\)$"),
        ((7,), "face fix 0 is not a pair: 7$"),
    ],
    ids=["coordinate-float", "value-float", "value-2", "not-a-sequence", "short", "long", "entry-int"],
)
def test_face_slice_refuses_malformed_fixes(fixes, message):
    code = part_to_npadj(BinaryMatrix.from_rows([[1, 1, 1]])).target
    with pytest.raises(InputError, match=message):
        face_slice(code, fixes)


def test_corrupted_map_fails_verification():
    art = stable_to_part(EDGE)
    zero = AffineMap(
        [(0, 0)] * art.amap.target_dim, (0,) * art.amap.target_dim
    )
    broken = dataclasses.replace(art, amap=zero)
    assert not verify_reduction(broken).ok


def test_corrupted_offset_fails_verification():
    a = BinaryMatrix.from_rows([[1, 1, 1]])
    art = part_to_npadj(a)
    offset = list(art.amap.offset)
    offset[0] = 1  # y1 held at 1 instead of 0
    broken = dataclasses.replace(art, amap=AffineMap(art.amap.matrix, offset))
    assert broken.face_fixes == ((0, 1), (1, 1), (2, 1))
    assert not verify_reduction(broken).ok
