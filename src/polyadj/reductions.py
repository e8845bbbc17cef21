"""Vertex-preserving affine reductions between polytope families.

Three building blocks: stable-set polytopes embed into partition
polytopes by appending one slack per edge; partition polytopes embed
into the adjacency family as the coordinate slice y1=0, y2=1, y3=1;
the adjacency family embeds into the double-cover family by pinning
two fresh coordinates a=0, b=1.  Each reduction carries its affine map
and the coordinate fixes that cut its image out of the target, and
composes with the others.

verify_reduction replays a reduction exhaustively on enumerated vertex
sets: the image must equal the declared face slice, the map must be
injective, and the slice must be supported as a face of the target.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    constraint_rows,
    dcp,
    dimension,
    npadj,
    part,
    stable,
)


@dataclass(frozen=True)
class ReductionArtifact:
    """A reduction: an affine map onto a coordinate slice of the target.

    face_fixes lists (coordinate, value) pairs; the image of the source
    vertex set is exactly the set of target vertices satisfying them
    (no fixes means the map is onto the whole target vertex set).
    coord_embedding records where each source coordinate reappears in
    the target, which is what lets artifacts compose.
    """

    source: PolytopeCode
    target: PolytopeCode
    amap: AffineMap
    face_fixes: tuple[tuple[int, int], ...]
    coord_embedding: tuple[int, ...]


@dataclass(frozen=True)
class ReductionReport:
    image_equals_face_slice: bool
    injective: bool
    face_is_supported: bool
    source_dim: int
    target_dim: int

    @property
    def ok(self) -> bool:
        return self.image_equals_face_slice and self.injective and self.face_is_supported


def stable_to_part(g: Graph) -> ReductionArtifact:
    """Stable-set polytope onto a whole partition polytope.

    The target matrix has one row per edge {u, v} with ones at u, v, and
    a fresh slack column; a stable vertex x maps to (x, slack) with
    slack_e = 1 - x_u - x_v.  The image is the entire target vertex set,
    so the face fixes are empty.
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
        face_fixes=(),
        coord_embedding=tuple(range(nv)),
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
        face_fixes=((0, 0), (1, 1), (2, 1)),
        coord_embedding=tuple(x for x, _ in pairs),
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
    embedding = tuple(range(2, d + 2))
    b_rows = []
    for support, lo, _ in constraint_rows(source):
        row = [0] * (d + 2)
        if lo == 1:
            row[0] = row[1] = 1
        for i in support:
            row[embedding[i]] = 1
        b_rows.append(tuple(row))
    b = BinaryMatrix(tuple(b_rows), d + 2)

    map_rows = [[0] * d for _ in range(d + 2)]
    for i, target in enumerate(embedding):
        map_rows[target][i] = 1
    return ReductionArtifact(
        source=source,
        target=dcp(b),
        amap=AffineMap(map_rows, [0, 1] + [0] * d),  # a = 0, b = 1
        face_fixes=((0, 0), (1, 1)),
        coord_embedding=embedding,
    )


def compose(first: ReductionArtifact, second: ReductionArtifact) -> ReductionArtifact:
    """The reduction running first, then second.

    Requires second's source code to be first's target code.  First's
    face fixes are pushed through second's coordinate embedding, which
    is exact because every reduction here re-emits its source
    coordinates verbatim somewhere in its target.
    """
    if second.source != first.target:
        raise InputError("reductions do not chain: target and source codes differ")
    fixes = second.face_fixes + tuple(
        (second.coord_embedding[i], v) for i, v in first.face_fixes
    )
    return ReductionArtifact(
        source=first.source,
        target=second.target,
        amap=second.amap.compose(first.amap),
        face_fixes=fixes,
        coord_embedding=tuple(second.coord_embedding[i] for i in first.coord_embedding),
    )


# the chain's stages by name, in chain order, which ChainArtifacts.stages relies on
STAGE_BUILDERS: dict[str, Callable[..., ReductionArtifact]] = {
    "stable-part": stable_to_part,
    "part-npadj": part_to_npadj,
    "npadj-dcp": npadj_to_dcp,
}


@dataclass(frozen=True)
class ChainArtifacts:
    to_part: ReductionArtifact
    to_npadj: ReductionArtifact
    to_dcp: ReductionArtifact
    composed: ReductionArtifact

    @property
    def stages(self) -> tuple[tuple[str, ReductionArtifact], ...]:
        """(name, artifact) for each stage, in chain order."""
        return tuple(zip(STAGE_BUILDERS, (self.to_part, self.to_npadj, self.to_dcp)))


def reduction_chain(g: Graph) -> ChainArtifacts:
    """The full pipeline stable -> part -> npadj -> dcp plus its
    composition into a single artifact."""
    s2p = stable_to_part(g)
    a = s2p.target.params
    p2n = part_to_npadj(a)
    n2d = npadj_to_dcp(a)
    composed = compose(compose(s2p, p2n), n2d)
    return ChainArtifacts(s2p, p2n, n2d, composed)


def face_slice(
    code: PolytopeCode,
    fixes: tuple[tuple[int, int], ...],
    *,
    max_dim: int = DEFAULT_ENUMERATION_CAP,
) -> list[Bits]:
    """The sublist of enumerate_vertices(code) satisfying every
    coordinate fix, in the same lexicographic order."""
    d = dimension(code)
    for i, v in fixes:
        if not 0 <= i < d:
            raise CoordinateOutOfRange(i, d)
        if v not in (0, 1):
            raise InputError(f"fix value must be 0/1, got {v}")
    verts = enumerate_vertices(code, max_dim=max_dim)
    return [x for x in verts if all(x[i] == v for i, v in fixes)]


def verify_reduction(
    artifact: ReductionArtifact, *, max_dim: int = DEFAULT_ENUMERATION_CAP
) -> ReductionReport:
    """Replay a reduction on full enumerated vertex sets.

    Checks that the image of the source vertex set equals the declared
    face slice of the target, that the map is injective on it, and that
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
        source_dim=dimension(artifact.source),
        target_dim=dimension(artifact.target),
    )
