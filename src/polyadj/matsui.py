"""The distinguished-pair adjacency criterion on the adjacency family.

Every adjacency-family polytope contains two special complementary
vertices: x0, the unique vertex with y1 = y2 = 0, and its coordinatewise
complement.  Their adjacency encodes a partition-feasibility question:
the pair spans an edge exactly when the underlying partition polytope is
empty.  matsui_check tests that equivalence instance by instance, with
the adjacency side decided by the exact hull oracle.

face_decomposition exposes the structure behind the criterion: the
vertex set splits into the two special vertices plus four coordinate
slices of equal size, cut out by the eight-minus-four y-patterns, with
the slices pairing up under complementation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvariantViolation
from .hull import are_adjacent, enumerate_vertices
from .model import (
    DEFAULT_ENUMERATION_CAP,
    BinaryMatrix,
    Bits,
    complement,
    constraint_rows,
    dimension,
    membership,
    npadj,
    part,
)
from .reductions import face_slice

_FACE_PATTERNS = ((0, 1, 1), (1, 0, 1), (0, 1, 0), (1, 0, 0))


@dataclass(frozen=True)
class NPadjDecomposition:
    """The five-way split of an adjacency-family vertex set: four equal
    slices f1..f4 (f4 complements f1, f3 complements f2) and the two
    special vertices.  k is the common slice size."""

    f1: tuple[Bits, ...]
    f2: tuple[Bits, ...]
    f3: tuple[Bits, ...]
    f4: tuple[Bits, ...]
    x0: Bits
    x0bar: Bits
    k: int


@dataclass(frozen=True)
class MatsuiReport:
    part_empty: bool
    special_adjacent: bool
    criterion_holds: bool
    part_count: int
    vertex_count: int


def special_vertices(a: BinaryMatrix) -> tuple[Bits, Bits]:
    """The unique vertex with y1 = y2 = 0 and its complement.

    Read off constraint_rows(npadj(a)): with y1 = y2 = 0 each selector
    row y1 + y2 + xp_j + xbar_j = 2 sets its other two coordinates to
    one, and every remaining coordinate is zero (zero primal block,
    all-ones complement and shadow blocks).
    """
    code = npadj(a)
    x0 = [0] * dimension(code)
    for support, _, _ in constraint_rows(code):
        if support[0] == 0:  # a selector row, the only rows holding y1
            for i in support[2:]:
                x0[i] = 1
    x0_bits = tuple(x0)
    x0bar_bits = complement(x0_bits)
    if not membership(code, x0_bits) or not membership(code, x0bar_bits):
        raise InvariantViolation("special vertices fell outside the adjacency polytope")
    return x0_bits, x0bar_bits


def face_decomposition(
    a: BinaryMatrix, *, max_dim: int = DEFAULT_ENUMERATION_CAP
) -> NPadjDecomposition:
    """Split the vertex set by y-pattern and verify the split.

    Raises InvariantViolation if the five parts fail to partition the
    vertex set, differ in size, or break complement symmetry; none of
    that can happen for a valid code.
    """
    code = npadj(a)
    verts = enumerate_vertices(code, max_dim=max_dim)
    x0, x0bar = special_vertices(a)
    slices = []
    for pattern in _FACE_PATTERNS:
        fixes = tuple((i, v) for i, v in enumerate(pattern))
        slices.append(tuple(face_slice(code, fixes, max_dim=max_dim)))
    f1, f2, f3, f4 = slices

    part_count = len(enumerate_vertices(part(a), max_dim=max_dim))
    sizes = {len(s) for s in slices}
    if sizes != {part_count}:
        raise InvariantViolation("face slices differ in size from the partition count")
    pieces = [x0, x0bar]
    for s in slices:
        pieces.extend(s)
    if len(set(pieces)) != len(pieces) or set(pieces) != set(verts):
        raise InvariantViolation("slices plus special vertices do not partition the vertex set")
    if sorted(complement(x) for x in f1) != sorted(f4):
        raise InvariantViolation("f4 is not the complement of f1")
    if sorted(complement(x) for x in f2) != sorted(f3):
        raise InvariantViolation("f3 is not the complement of f2")
    if len(verts) != 2 + 4 * part_count:
        raise InvariantViolation("vertex count is not 2 + 4 * partition count")
    return NPadjDecomposition(f1, f2, f3, f4, x0, x0bar, part_count)


def matsui_check(
    a: BinaryMatrix, *, max_dim: int = DEFAULT_ENUMERATION_CAP
) -> MatsuiReport:
    """Test the criterion on one instance: the special pair is adjacent
    exactly when the partition polytope of the matrix is empty."""
    part_verts = enumerate_vertices(part(a), max_dim=max_dim)
    verts = enumerate_vertices(npadj(a), max_dim=max_dim)
    x0, x0bar = special_vertices(a)
    verdict = are_adjacent(verts, x0, x0bar)
    part_empty = not part_verts
    return MatsuiReport(
        part_empty=part_empty,
        special_adjacent=verdict.adjacent,
        criterion_holds=part_empty == verdict.adjacent,
        part_count=len(part_verts),
        vertex_count=len(verts),
    )
