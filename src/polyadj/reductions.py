"""Vertex-preserving affine reductions between polytope families.

Three building blocks: stable-set polytopes embed into partition
polytopes by appending one slack per edge; partition polytopes embed
into the adjacency family as the coordinate slice y1=0, y2=1, y3=1;
the adjacency family embeds into the double-cover family by pinning
two fresh coordinates a=0, b=1.  A reduction is its source, target and
affine map; the coordinate fixes that cut its image out of the target
are the map's constant rows, and reductions compose as maps.

verify_reduction replays a reduction exhaustively on enumerated vertex
sets: the image must equal the face slice, the map must be injective,
and the slice must be supported as a face of the target.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Callable

from .errors import CoordinateOutOfRange, EmptyGraph, InputError, NoEdges
from .hull import enumerate_vertices, is_face
from .model import (
    DEFAULT_ENUMERATION_CAP,
    AffineMap,
    BinaryMatrix,
    Bits,
    Graph,
    PolytopeCode,
    as_index,
    as_pair,
    as_tuple,
    constraint_rows,
    dcp,
    dimension,
    npadj,
    part,
    stable,
)


@dataclass(frozen=True)
class ReductionArtifact:
    """A reduction: an affine map onto a coordinate slice of the target."""

    source: PolytopeCode
    target: PolytopeCode
    amap: AffineMap

    @property
    def face_fixes(self) -> tuple[tuple[int, int], ...]:
        """(coordinate, value) for each target coordinate the map holds
        constant, in coordinate order; the image of the source vertex
        set is exactly the set of target vertices satisfying them (no
        fixes means the map is onto the whole target vertex set)."""
        return tuple(
            (t, c) for t, (row, c) in enumerate(zip(self.amap.matrix, self.amap.offset))
            if not any(row)
        )


@dataclass(frozen=True)
class ReductionReport:
    image_equals_face_slice: bool
    injective: bool
    face_is_supported: bool

    @property
    def ok(self) -> bool:
        return self.image_equals_face_slice and self.injective and self.face_is_supported


def stable_to_part(g: Graph) -> ReductionArtifact:
    """Stable-set polytope onto a whole partition polytope.

    The target matrix has one row per edge {u, v} with ones at u, v, and
    a fresh slack column; a stable vertex x maps to (x, slack) with
    slack_e = 1 - x_u - x_v.  No map row is constant, so the image is
    the entire target vertex set.
    """
    if g.vertex_count == 0:
        raise EmptyGraph()
    if g.edge_count == 0:
        raise NoEdges()
    nv, ne = g.vertex_count, g.edge_count
    rows = []
    map_rows = [[int(i == j) for j in range(nv)] for i in range(nv)]
    for e, (u, v) in enumerate(g.edges):
        row = [0] * (nv + ne)
        row[u] = row[v] = row[nv + e] = 1
        rows.append(tuple(row))
        slack = [0] * nv
        slack[u] = slack[v] = -1
        map_rows.append(slack)
    return ReductionArtifact(
        source=stable(g),
        target=part(BinaryMatrix(tuple(rows), nv + ne)),
        amap=AffineMap(map_rows, [0] * nv + [1] * ne),
    )


def part_to_npadj(a: BinaryMatrix) -> ReductionArtifact:
    """Partition polytope onto the y1=0, y2=1, y3=1 slice of the
    adjacency family: z maps to (0,1,1 | z | 1-z | z).

    The coordinates are read off constraint_rows(npadj(a)): x_j and
    xbar_j from the pair rows x_j + xbar_j = 1, xp_j from the selector
    rows y1 + y2 + xp_j + xbar_j = 2, both in column order.
    """
    target = npadj(a)
    d = dimension(target)
    rows = constraint_rows(target)
    pairs = [support for support, lo, _ in rows if lo == 1]
    # the selector rows are the only rows holding y1
    shadows = [support[2] for support, _, _ in rows if support[0] == 0]
    n = a.ncols
    map_rows = [[0] * n for _ in range(d)]
    offset = [0] * d
    offset[1] = offset[2] = 1  # y2 = y3 = 1
    for j, ((x, xbar), xp) in enumerate(zip(pairs, shadows)):
        map_rows[x][j] = 1
        map_rows[xbar][j] = -1
        offset[xbar] = 1
        map_rows[xp][j] = 1
    return ReductionArtifact(
        source=part(a),
        target=target,
        amap=AffineMap(map_rows, offset),
    )


def npadj_to_dcp(a: BinaryMatrix) -> ReductionArtifact:
    """Adjacency family onto the a=0, b=1 slice of a double-cover code.

    The target matrix is read off constraint_rows(npadj(a)) with every
    support shifted past the two new pin coordinates a, b: the
    weight-four rows (sum two) stay as they are, and each pair
    constraint x_j + xbar_j = 1 becomes the weight-four row
    a + b + x_j + xbar_j (sum two), pinned by the two fixes.
    """
    source = npadj(a)
    d = dimension(source)
    b_rows = []
    for support, lo, _ in constraint_rows(source):
        row = [0] * (d + 2)
        if lo == 1:
            row[0] = row[1] = 1
        for i in support:
            row[2 + i] = 1
        b_rows.append(tuple(row))
    b = BinaryMatrix(tuple(b_rows), d + 2)

    map_rows = [[0] * d for _ in range(d + 2)]
    for i in range(d):
        map_rows[2 + i][i] = 1
    return ReductionArtifact(
        source=source,
        target=dcp(b),
        amap=AffineMap(map_rows, [0, 1] + [0] * d),  # a = 0, b = 1
    )


def compose(first: ReductionArtifact, second: ReductionArtifact) -> ReductionArtifact:
    """The reduction running first, then second; second's source code
    must be first's target code."""
    if second.source != first.target:
        raise InputError("reductions do not chain: target and source codes differ")
    return ReductionArtifact(first.source, second.target, second.amap.compose(first.amap))


# the chain's stages by name, in chain order; each builder takes the
# previous stage's target params (graph, then part matrix, then the same matrix)
STAGE_BUILDERS: dict[str, Callable[..., ReductionArtifact]] = {
    "stable-part": stable_to_part,
    "part-npadj": part_to_npadj,
    "npadj-dcp": npadj_to_dcp,
}


@dataclass(frozen=True)
class ChainArtifacts:
    stages: tuple[tuple[str, ReductionArtifact], ...]  # (name, artifact), in chain order
    composed: ReductionArtifact


def reduction_chain(g: Graph) -> ChainArtifacts:
    """The full pipeline stable -> part -> npadj -> dcp plus its
    composition into a single artifact."""
    stages = []
    params = g
    for name, build in STAGE_BUILDERS.items():
        art = build(params)
        stages.append((name, art))
        params = art.target.params
    composed = reduce(compose, (art for _, art in stages))
    return ChainArtifacts(tuple(stages), composed)


def face_slice(
    code: PolytopeCode,
    fixes: tuple[tuple[int, int], ...],
    *,
    max_dim: int = DEFAULT_ENUMERATION_CAP,
) -> list[Bits]:
    """The sublist of enumerate_vertices(code) satisfying every
    coordinate fix, in the same lexicographic order."""
    d = dimension(code)
    checked = []
    for idx, fix in enumerate(as_tuple(fixes, "face fixes")):
        i, v = as_pair(fix, "face fix", idx)
        i, v = as_index(i, "fix coordinate"), as_index(v, "fix value")
        if not 0 <= i < d:
            raise CoordinateOutOfRange(i, d)
        if v not in (0, 1):
            raise InputError(f"fix value must be 0/1, got {v}")
        checked.append((i, v))
    verts = enumerate_vertices(code, max_dim=max_dim)
    return [x for x in verts if all(x[i] == v for i, v in checked)]


def verify_reduction(
    artifact: ReductionArtifact, *, max_dim: int = DEFAULT_ENUMERATION_CAP
) -> ReductionReport:
    """Replay a reduction on full enumerated vertex sets.

    Checks that the image of the source vertex set equals the face
    slice of the target, that the map is injective on it, and that
    the slice is supported as a face of the target vertex set.
    """
    source_verts = enumerate_vertices(artifact.source, max_dim=max_dim)
    images = [artifact.amap.apply_bits(x) for x in source_verts]
    injective = len(set(images)) == len(images)
    slice_verts = face_slice(artifact.target, artifact.face_fixes, max_dim=max_dim)
    image_equals = sorted(set(images)) == slice_verts
    target_verts = enumerate_vertices(artifact.target, max_dim=max_dim)
    supported = is_face(slice_verts, target_verts) is not None
    return ReductionReport(
        image_equals_face_slice=image_equals,
        injective=injective,
        face_is_supported=supported,
    )
