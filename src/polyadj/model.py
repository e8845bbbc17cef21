"""Polytope codes, the adjacency-family layout, and exact membership predicates.

A code names one of six families of 0/1-polytopes: covering, packing,
and partition polytopes of a 0/1 matrix, stable-set polytopes of a
graph, the double-cover family (rows of weight four, row sums pinned to
two), and the adjacency family built from a matrix with weight-three
rows.  Every code determines an ambient dimension and a membership
predicate over {0,1}^d; the polytope is the convex hull of the members,
and each member is a vertex of that hull.  A code checks its family's
conditions when it is built, so every code in hand is valid.

All arithmetic in this package is exact.  The affine maps between
families have integer coefficients and stay in ints; rational values
elsewhere are fractions.Fraction, in lowest terms with a positive
denominator.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence, Union

from .errors import (
    BadEdge,
    DimensionMismatch,
    EmptyMatrix,
    InputError,
    InvariantViolation,
    WrongRowWeight,
)

Bits = tuple[int, ...]

DEFAULT_ENUMERATION_CAP = 24

FAMILIES = ("cover", "pack", "part", "stable", "dcp", "npadj")


def as_tuple(values: Iterable, what: str) -> tuple:
    """The vertex or point as a tuple; InputError when it is not a sequence."""
    try:
        return tuple(values)
    except TypeError:
        raise InputError(f"{what} {values!r} is not a sequence") from None


def as_index(value: int, what: str) -> int:
    """A count or an index as an int; InputError for a float or any non-integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise InputError(f"{what} {value!r} is not an integer") from None


def as_pair(value: Iterable, what: str, index: int) -> tuple:
    """Entry index of an edge, pair or fix list as a 2-tuple; InputError if it is not one."""
    try:
        first, second = value
    except (TypeError, ValueError):
        raise InputError(f"{what} {index} is not a pair: {value!r}") from None
    return first, second


def as_bits(values: Iterable[int], dim: int | None = None) -> Bits:
    """The vertex as a tuple of the ints 0 and 1 (InputError for any other
    entry), of length dim when given (DimensionMismatch)."""
    x = as_tuple(values, "vertex")
    # bytes() refuses non-ints and ints outside 0..255; bytes(n) would be n zeros
    try:
        packed = bytes(x)
    except (TypeError, ValueError):
        packed = b"\x02"
    if packed.translate(None, b"\x00\x01"):
        raise InputError(f"vertex {x} has an entry outside 0/1")
    if dim is not None and len(x) != dim:
        raise DimensionMismatch(dim, len(x))
    return tuple(packed)


def complement(x: Bits) -> Bits:
    return tuple(1 - b for b in x)


# Inside the library a 0/1 vector is often kept as an int word with
# coordinate 0 as the most significant of its dim bits; these two
# functions are the only conversion between words and Bits tuples.
_FROM_ASCII = bytes.maketrans(b"01", b"\x00\x01")


def bits_from_int(word: int, dim: int) -> Bits:
    """Unpack the low dim bits of an integer into a bit vector,
    coordinate 0 most significant."""
    top = 1 << dim
    # the leading one fixes the width, also at dim 0; the slice drops it
    # with the "0b" prefix
    return tuple(bin(word & (top - 1) | top)[3:].encode().translate(_FROM_ASCII))


def bits_to_int(x: Bits) -> int:
    """Pack a bit vector into an integer, coordinate 0 most significant."""
    word = 0
    for b in x:
        word = (word << 1) | b
    return word


# ---- matrices and graphs -------------------------------------------------


@dataclass(frozen=True)
class BinaryMatrix:
    """A 0/1 matrix with m >= 0 rows and n >= 1 columns."""

    rows: tuple[Bits, ...]
    ncols: int

    def __post_init__(self) -> None:
        if as_index(self.ncols, "column count") < 1:
            raise InputError("matrix needs at least one column")
        object.__setattr__(self, "rows", tuple(as_bits(r, self.ncols) for r in self.rows))

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "BinaryMatrix":
        tup = tuple(as_tuple(r, "vertex") for r in rows)
        if not tup:
            raise EmptyMatrix()
        return cls(tup, len(tup[0]))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def row_support(self, i: int) -> tuple[int, ...]:
        return tuple(j for j, v in enumerate(self.rows[i]) if v)

    def row_weight(self, i: int) -> int:
        return sum(self.rows[i])


@dataclass(frozen=True)
class Graph:
    """An undirected graph on vertices 0..vertex_count-1.

    Edges may come in any order and orientation; they are stored
    normalized (u < v) and sorted, so two graphs with the same edge set
    compare and hash equal regardless of input order.  An endpoint
    outside the vertices, a self-loop or a repeated edge, in either
    orientation, is a BadEdge naming the edge's position in the input.
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        n = as_index(self.vertex_count, "vertex count")
        if n < 0:
            raise InputError("vertex count must be nonnegative")
        seen = set()
        for i, edge in enumerate(as_tuple(self.edges, "edge list")):
            u, v = as_pair(edge, "edge", i)
            u, v = as_index(u, "edge endpoint"), as_index(v, "edge endpoint")
            if u > v:
                u, v = v, u
            if u < 0 or v >= n:
                raise BadEdge(i, f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
            if u == v:
                raise BadEdge(i, f"self-loop at vertex {u}")
            if (u, v) in seen:
                raise BadEdge(i, f"duplicate edge ({u}, {v})")
            seen.add((u, v))
        object.__setattr__(self, "edges", tuple(sorted(seen)))

    @property
    def edge_count(self) -> int:
        return len(self.edges)


CodeParams = Union[BinaryMatrix, Graph]


@dataclass(frozen=True)
class PolytopeCode:
    family: str
    params: CodeParams

    def __post_init__(self) -> None:
        validate_code(self)


def cover(a: BinaryMatrix) -> PolytopeCode:
    return PolytopeCode("cover", a)


def pack(a: BinaryMatrix) -> PolytopeCode:
    return PolytopeCode("pack", a)


def part(a: BinaryMatrix) -> PolytopeCode:
    return PolytopeCode("part", a)


def stable(g: Graph) -> PolytopeCode:
    return PolytopeCode("stable", g)


def dcp(b: BinaryMatrix) -> PolytopeCode:
    return PolytopeCode("dcp", b)


def npadj(a: BinaryMatrix) -> PolytopeCode:
    return PolytopeCode("npadj", a)


def validate_code(code: PolytopeCode) -> None:
    """Raise on the first violated family invariant; PolytopeCode runs
    this when it is built, so no other code needs to.

    The double-cover family needs every row weight to be exactly four;
    the adjacency family needs a nonempty matrix of weight-three rows.
    The remaining families accept any 0/1 matrix or graph.
    """
    if code.family not in FAMILIES:
        raise InputError(f"unknown family {code.family!r}")
    if code.family == "stable":
        if not isinstance(code.params, Graph):
            raise InputError("stable codes take a graph")
        return
    if not isinstance(code.params, BinaryMatrix):
        raise InputError(f"{code.family} codes take a 0/1 matrix")
    a = code.params
    if code.family == "dcp":
        for i in range(a.nrows):
            if a.row_weight(i) != 4:
                raise WrongRowWeight(i, 4)
    elif code.family == "npadj":
        if a.nrows == 0:
            raise EmptyMatrix()
        for i in range(a.nrows):
            if a.row_weight(i) != 3:
                raise WrongRowWeight(i, 3)


def dimension(code: PolytopeCode) -> int:
    if code.family == "stable":
        return code.params.vertex_count
    if code.family == "npadj":
        return 3 * code.params.ncols + 3
    return code.params.ncols


# ---- membership ----------------------------------------------------------

# A constraint is a popcount window: the sum of the supported
# coordinates must land in [lo, hi].
ConstraintRow = tuple[tuple[int, ...], int, int]


@lru_cache(maxsize=4096)
def constraint_rows(code: PolytopeCode) -> tuple[ConstraintRow, ...]:
    """Compile a code into popcount-window constraints over its layout.

    The adjacency family's layout, in dimension 3n + 3, is stated here
    and nowhere else: the selector coordinates y1 y2 y3 at 0-2, the
    primal coordinates x_j at 3 + j, their complements xbar_j at
    3 + n + j and the shadow copies xp_j at 3 + 2n + j.
    """
    if code.family == "stable":
        return tuple(((u, v), 0, 1) for u, v in code.params.edges)
    a = code.params
    if code.family == "cover":
        return tuple((a.row_support(i), 1, a.row_weight(i)) for i in range(a.nrows))
    if code.family == "pack":
        return tuple((a.row_support(i), 0, 1) for i in range(a.nrows))
    if code.family == "part":
        return tuple((a.row_support(i), 1, 1) for i in range(a.nrows))
    if code.family == "dcp":
        return tuple((a.row_support(i), 2, 2) for i in range(a.nrows))
    # adjacency family: per column j, the pair row x_j + xbar_j = 1 and
    # the selector row y1 + y2 + xp_j + xbar_j = 2; per matrix row with
    # support {i < j < k}, the row y3 + x_i + xp_j + xp_k = 2 (the
    # smallest index takes the primal role).
    n = a.ncols
    x, xbar, xp = 3, 3 + n, 3 + 2 * n
    rows: list[ConstraintRow] = []
    for j in range(n):
        rows.append(((x + j, xbar + j), 1, 1))
        rows.append(((0, 1, xp + j, xbar + j), 2, 2))
    for r in range(a.nrows):
        i, j, k = a.row_support(r)
        rows.append(((2, x + i, xp + j, xp + k), 2, 2))
    return tuple(rows)


def stable_edge_masks(g: Graph) -> list[int]:
    """The constraint rows of stable(g), one word per edge with the
    bits of both end vertices set: a vertex word w is a stable set iff
    w & mask != mask for every mask."""
    top = 1 << g.vertex_count
    # a list: built once per pair family, tuples of every edge count
    # would pile up in the interpreter's tuple free lists
    return [top >> (u + 1) | top >> (v + 1) for (u, v), _, _ in constraint_rows(stable(g))]


def membership(code: PolytopeCode, x: Sequence[int]) -> bool:
    """Exact membership of a 0/1 point in the coded polytope's vertex set."""
    x = as_bits(x, dimension(code))
    for support, lo, hi in constraint_rows(code):
        s = 0
        for i in support:
            s += x[i]
        if s < lo or s > hi:
            return False
    return True


# ---- affine maps ----------------------------------------------------------


@dataclass(frozen=True)
class AffineMap:
    """An exact affine map x -> T x + c with integer coefficients.

    The rows of T and the offset c may be given as any iterables of
    ints; they are kept as tuples.
    """

    matrix: tuple[tuple[int, ...], ...]
    offset: tuple[int, ...]

    def __post_init__(self) -> None:
        matrix = tuple(tuple(map(operator.index, row)) for row in self.matrix)
        offset = tuple(map(operator.index, self.offset))
        if len(matrix) != len(offset):
            raise DimensionMismatch(len(matrix), len(offset))
        if len({len(row) for row in matrix}) > 1:
            raise InputError("ragged affine map matrix")
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "offset", offset)

    @property
    def source_dim(self) -> int:
        return len(self.matrix[0]) if self.matrix else 0

    @property
    def target_dim(self) -> int:
        return len(self.matrix)

    def apply(self, x: Sequence[int]) -> tuple[int, ...]:
        if len(x) != self.source_dim:
            raise DimensionMismatch(self.source_dim, len(x))
        out = []
        for row, c in zip(self.matrix, self.offset):
            acc = c
            for t, v in zip(row, x):
                if t and v:
                    acc += t * v
            out.append(acc)
        return tuple(out)

    def apply_bits(self, x: Sequence[int]) -> Bits:
        """Apply and demand a 0/1 image.

        Reduction maps built by this package send 0/1 vertices to 0/1
        vertices; any other image means the map is broken.
        """
        image = self.apply(x)
        for v in image:
            if v != 0 and v != 1:
                raise InvariantViolation(f"affine image is not 0/1: coordinate value {v}")
        return image

    def compose(self, inner: "AffineMap") -> "AffineMap":
        """The map x -> self(inner(x)), summing over the nonzero
        coefficients only."""
        if inner.target_dim != self.source_dim:
            raise DimensionMismatch(self.source_dim, inner.target_dim)
        inner_rows = [[(j, t) for j, t in enumerate(row) if t] for row in inner.matrix]
        rows = []
        offset = []
        for row, c in zip(self.matrix, self.offset):
            acc = [0] * inner.source_dim
            for k, t in enumerate(row):
                if t:
                    c += t * inner.offset[k]
                    for j, s in inner_rows[k]:
                        acc[j] += t * s
            rows.append(acc)
            offset.append(c)
        return AffineMap(rows, offset)
