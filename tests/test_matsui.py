import pytest
import reduction_reference

from polyadj import matsui
from polyadj.errors import WrongRowWeight
from polyadj.generators import infeasible_four_by_four, three_ones_matrices
from polyadj.hull import enumerate_vertices
from polyadj.matsui import face_decomposition, matsui_check, special_vertices
from polyadj.model import BinaryMatrix, complement, membership, npadj, part
from polyadj.sweeps import matsui_instance_family


def test_special_vertices_layout():
    a = BinaryMatrix.from_rows([[1, 1, 1]])
    x0, x0bar = special_vertices(a)
    assert x0 == (0, 0, 0) + (0, 0, 0) + (1, 1, 1) + (1, 1, 1)
    assert x0bar == complement(x0)
    assert membership(npadj(a), x0)
    assert membership(npadj(a), x0bar)


def test_special_vertices_match_hand_written_x0():
    matrices = matsui_instance_family()
    assert len(matrices) == 1073
    for a in matrices:
        x0, x0bar = special_vertices(a)
        assert x0 == reduction_reference.special_x0(a)
        assert x0bar == complement(x0)


def test_single_row_instance():
    a = BinaryMatrix.from_rows([[1, 1, 1]])
    report = matsui_check(a)
    assert not report.part_empty
    assert not report.special_adjacent
    assert report.criterion_holds
    assert report.part_count == 3
    assert report.vertex_count == 14


def test_infeasible_instance_is_segment():
    a = infeasible_four_by_four()
    report = matsui_check(a)
    assert report.part_empty
    assert report.special_adjacent
    assert report.criterion_holds
    assert report.vertex_count == 2


def test_width_three_instances_have_a_partition():
    # (1, 1, 1) is the one weight-three row of width three, so each
    # instance repeats it and (1, 1, 1) is always a partition
    for m in (1, 2):
        for a in three_ones_matrices(3, m):
            report = matsui_check(a)
            assert report.criterion_holds
            assert not report.part_empty


def test_two_row_instance():
    a = BinaryMatrix.from_rows([[1, 1, 1, 0], [0, 1, 1, 1]])
    assert membership(part(a), (1, 0, 0, 1))
    report = matsui_check(a)
    assert not report.part_empty
    assert not report.special_adjacent
    assert report.criterion_holds


def test_max_dim_reaches_every_enumeration(monkeypatch):
    # a real run past the default cap walks 2^n prefixes, so record the
    # calls instead
    calls = []
    real = matsui.enumerate_vertices

    def recorder(code, **kwargs):
        calls.append((code.family, kwargs))
        return real(code, **kwargs)

    monkeypatch.setattr(matsui, "enumerate_vertices", recorder)
    a = BinaryMatrix.from_rows([[1, 1, 1]])
    matsui_check(a, max_dim=30)
    assert sorted(calls) == [("npadj", {"max_dim": 30}), ("part", {"max_dim": 30})]
    calls.clear()
    face_decomposition(a, max_dim=30)
    assert sorted(calls) == [("npadj", {"max_dim": 30}), ("part", {"max_dim": 30})]


def test_decomposition_partitions_vertex_set():
    a = BinaryMatrix.from_rows([[1, 1, 1]])
    decomp = face_decomposition(a)
    verts = enumerate_vertices(npadj(a))
    pieces = [decomp.f1, decomp.f2, decomp.f3, decomp.f4]
    assert all(len(p) == decomp.k for p in pieces)
    collected = set()
    for p in pieces:
        collected.update(p)
    collected.update({decomp.x0, decomp.x0bar})
    assert collected == set(verts)
    assert len(verts) == 2 + 4 * decomp.k
    assert sorted(complement(x) for x in decomp.f1) == sorted(decomp.f4)
    assert sorted(complement(x) for x in decomp.f2) == sorted(decomp.f3)


def test_selector_patterns():
    a = BinaryMatrix.from_rows([[1, 1, 1]])
    decomp = face_decomposition(a)
    assert all(x[0:3] == (0, 1, 1) for x in decomp.f1)
    assert all(x[0:3] == (1, 0, 1) for x in decomp.f2)
    assert all(x[0:3] == (0, 1, 0) for x in decomp.f3)
    assert all(x[0:3] == (1, 0, 0) for x in decomp.f4)


def test_vertex_count_formula_across_family():
    for a in three_ones_matrices(4, 2):
        report = matsui_check(a)
        assert report.vertex_count == 2 + 4 * report.part_count
        assert report.criterion_holds


def test_npadj_vertex_set_is_an_odd_equal_sum_family():
    # The paper's hinge: the adjacency-family polytope of a is 2k + 1
    # complementary pairs, k = |part(a)|, all summing to the all-ones
    # vector.  For k >= 1 that is an odd family of at least three
    # equal-sum pairs, which no stable-set polytope has as a face; k = 0
    # is the segment between the special vertices.
    ks = set()
    for a in matsui_instance_family():
        verts = enumerate_vertices(npadj(a))
        k = len(enumerate_vertices(part(a)))
        ks.add(k)
        pairs = {frozenset((x, complement(x))) for x in verts}
        assert len(verts) == 2 + 4 * k
        assert len(pairs) == 2 * k + 1 == len(verts) // 2
        ones = (1,) * len(verts[0])
        assert all(tuple(map(sum, zip(*p))) == ones for p in pairs)
        assert frozenset(special_vertices(a)) in pairs
        assert (len(pairs) >= 3) == (k >= 1)
        if k == 0:
            assert sorted(verts) == sorted(special_vertices(a))
    assert ks == {0, 1, 2, 3, 5, 6, 12}


def test_rejects_wrong_row_weight():
    with pytest.raises(WrongRowWeight):
        matsui_check(BinaryMatrix.from_rows([[1, 1, 0, 0]]))
