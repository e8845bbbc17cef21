"""Batch experiment drivers.

Each sweep replays one of the package's guaranteed properties across an
instance family and reports failures instead of raising, so a driver
run always completes and the caller decides what a failure means.
Each sweep's instance set is stated once, in its body: its sizes and
seeds are fixed there, so every run revisits exactly the same
instances, and a caller chooses only whether to see progress.

``python -m polyadj.sweeps NAME`` runs one of them (matsui, chain,
hull, pairs, face), the same runs the acceptance suite makes.
"""

from __future__ import annotations

import argparse
import random
import sys
from dataclasses import dataclass, field, fields
from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterable, Iterator, Sequence

from .errors import PolytopeError
from .formats import format_vertex, rat_str
from .generators import (
    all_graphs,
    odd_index_subsets,
    random_graph,
    random_vertex_set,
    three_ones_matrices,
)
from .hull import (
    are_adjacent,
    enumerate_vertices,
    in_convex_hull,
    in_convex_hull_bruteforce,
    is_face,
    vertex_words,
)
from .matsui import matsui_check
from .model import BinaryMatrix, Bits, Graph, bits_from_int, dcp, npadj, stable
from .simplex import feasible_point
from .reductions import reduction_chain, verify_reduction
from .witness import pair_extension_oracle, refute_face

Progress = Callable[[str], None]


def _tick(progress: Progress | None, message: str) -> None:
    if progress is not None:
        progress(message)


# ---- adjacency criterion sweep --------------------------------------------


@dataclass
class MatsuiSweepResult:
    instances: int = 0
    part_empty_instances: int = 0
    failures: list[BinaryMatrix] = field(default_factory=list)

    @property
    def all_hold(self) -> bool:
        return self.instances > 0 and not self.failures


def matsui_instance_family() -> list[BinaryMatrix]:
    """The deduplicated sweep family: every row multiset of weight-three
    rows for widths 3 to 5 and 1 to 4 rows, 1,073 matrices, the
    infeasible 4x4 instance among them."""
    return [a for n in (3, 4, 5) for m in (1, 2, 3, 4) for a in three_ones_matrices(n, m)]


def run_matsui_sweep(*, progress: Progress | None = None) -> MatsuiSweepResult:
    """Check the adjacency criterion on every matrix of
    matsui_instance_family, at the default enumeration cap."""
    result = MatsuiSweepResult()
    for a in matsui_instance_family():
        report = matsui_check(a)
        result.instances += 1
        if report.part_empty:
            result.part_empty_instances += 1
        if not report.criterion_holds:
            result.failures.append(a)
        if result.instances % 100 == 0:
            _tick(progress, f"checked {result.instances} instances")
    return result


# ---- reduction chain sweep -------------------------------------------------


@dataclass
class ChainSweepResult:
    graphs: int = 0
    checks: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def all_hold(self) -> bool:
        return self.graphs > 0 and not self.failures


def run_chain_sweep(*, progress: Progress | None = None) -> ChainSweepResult:
    """Verify every stage and the full composition of the reduction
    chain on each of the 71 graphs on 2 to 4 vertices with at least one
    edge, and audit the final double-cover matrix shape and row
    weights.  Enumeration is capped at dimension 40, above the 35 of a
    four-vertex complete graph's double-cover code."""
    result = ChainSweepResult()
    for nv in (2, 3, 4):
        for g in all_graphs(nv, min_edges=1):
            result.graphs += 1
            arts = reduction_chain(g)
            for label, art in (*arts.stages, ("composed", arts.composed)):
                report = verify_reduction(art, max_dim=40)
                result.checks += 1
                if not report.ok:
                    result.failures.append(f"{label} failed on {g}")
            b = arts.composed.target.params
            n = nv + g.edge_count
            m = g.edge_count
            if (b.nrows, b.ncols) != (2 * n + m, 3 * n + 5):
                result.failures.append(f"bad double-cover shape on {g}")
            if any(b.row_weight(i) != 4 for i in range(b.nrows)):
                result.failures.append(f"bad double-cover row weight on {g}")
            _tick(progress, f"chain verified on {result.graphs} graphs")
    return result


# ---- hull oracle crosschecks -----------------------------------------------

Rule = Callable[[Bits, Bits], bool]
# a vertex set and the factory that builds its adjacency rule
RuleSet = tuple[list[Bits], Callable[[Sequence[Bits]], Rule]]


def _vertex_list(vertices: Sequence[Bits]) -> str:
    return "{" + " ".join(map(format_vertex, vertices)) + "}"


@dataclass
class HullCrosscheckResult:
    queries: int = 0
    inside_answers: int = 0
    disagreements: list[str] = field(default_factory=list)

    @property
    def all_hold(self) -> bool:
        return self.queries > 0 and not self.disagreements


def run_hull_crosscheck(*, progress: Progress | None = None) -> HullCrosscheckResult:
    """Compare the simplex membership route against the exhaustive
    support-subset oracle on 1,000 random rational queries (seed
    20260819), each against at most eight vertices in dimension 1 to 4,
    about half of them a convex combination of those vertices."""
    rng = random.Random(20260819)
    result = HullCrosscheckResult()
    while result.queries < 1000:
        d = rng.randint(1, 4)
        count = rng.randint(1, min(8, 1 << d))
        vertices = random_vertex_set(rng, d, count)
        if rng.random() < 0.5:
            # A guaranteed-inside query: a random convex combination.
            weights = [rng.randint(0, 4) for _ in vertices]
            if sum(weights) == 0:
                weights[rng.randrange(len(weights))] = 1
            total = sum(weights)
            point = tuple(
                sum(Fraction(w * x[k], total) for w, x in zip(weights, vertices))
                for k in range(d)
            )
        else:
            point = tuple(Fraction(rng.randint(-2, 6), 4) for _ in range(d))
        fast = in_convex_hull(point, vertices)
        slow = in_convex_hull_bruteforce(point, vertices)
        result.queries += 1
        if fast is not None:
            result.inside_answers += 1
        if (fast is None) != (slow is None):
            result.disagreements.append(
                f"point ({' '.join(map(rat_str, point))}) in conv {_vertex_list(vertices)}: "
                f"inside by LP {fast is not None}, by support search {slow is not None}"
            )
        if result.queries % 200 == 0:
            _tick(progress, f"{result.queries} hull queries")
    return result


@dataclass
class AdjacencyCrosscheckResult:
    vertex_sets: int = 0
    pairs: int = 0
    disagreements: list[str] = field(default_factory=list)

    @property
    def all_hold(self) -> bool:
        return self.pairs > 0 and not self.disagreements


def _crosscheck(
    sets: Iterable[RuleSet], what: str, progress: Progress | None
) -> AdjacencyCrosscheckResult:
    """Compare are_adjacent on every vertex pair of every set against
    the rule the set's make_rule builds for it."""
    result = AdjacencyCrosscheckResult()
    for vertices, make_rule in sets:
        result.vertex_sets += 1
        rule = make_rule(vertices)
        for u, v in combinations(vertices, 2):
            adjacent = are_adjacent(vertices, u, v).adjacent
            result.pairs += 1
            if adjacent != rule(u, v):
                result.disagreements.append(
                    f"pair {format_vertex(u)} {format_vertex(v)} of {_vertex_list(vertices)}: "
                    f"are_adjacent {adjacent}, {make_rule.__name__} {not adjacent}"
                )
        _tick(progress, f"{result.vertex_sets} {what}")
    return result


def _segment_rule(vertices: Sequence[Bits]) -> Rule:
    """Independent adjacency rule: u and v are adjacent iff the segment
    [u, v] misses conv(rest), rest the other vertices.  One feasibility
    LP over convex weights on rest and a two-sided split of the segment
    point."""

    def adjacent(u: Bits, v: Bits) -> bool:
        rest = [x for x in vertices if x != u and x != v]
        if not rest:
            return True
        d = len(u)
        rows = [[x[i] for x in rest] + [-u[i], -v[i]] for i in range(d)]
        rows.append([1] * len(rest) + [0, 0])
        rows.append([0] * len(rest) + [1, 1])
        return feasible_point(rows, [0] * d + [1, 1]) is None

    return adjacent


def run_adjacency_crosscheck(*, progress: Progress | None = None) -> AdjacencyCrosscheckResult:
    """Compare the face-based adjacency decision against the segment
    criterion (some point of the open segment lies in the hull of the
    other vertices) on every vertex pair of 100 random sets (seed
    20260820) of 3 to 10 vertices in dimension 2 to 5."""

    def sets() -> Iterator[RuleSet]:
        rng = random.Random(20260820)
        for _ in range(100):
            d = rng.randint(2, 5)
            count = rng.randint(3, min(10, 1 << d))
            yield random_vertex_set(rng, d, count), _segment_rule

    return _crosscheck(sets(), "vertex sets", progress)


def family_vertex_sets() -> list[RuleSet]:
    """At least a hundred vertex sets drawn from the polytope families,
    each with the rule that decides its adjacency without an LP: every
    stable-set polytope on 3 and 4 vertices and ten random graphs on 5
    (seed 20260822) with Chvatal's criterion, all single-row
    double-cover codes of width 4 to 6 with the product rule, and the
    single-row three-ones instances with the midpoint rule."""
    rng = random.Random(20260822)
    graphs = [*all_graphs(3), *all_graphs(4), *(random_graph(rng, 5) for _ in range(10))]
    sets = [(enumerate_vertices(stable(g)), _chvatal_rule) for g in graphs]
    for build, weight, widths, rule in (
        (dcp, 4, (4, 5, 6), _product_rule),
        (npadj, 3, (3, 4), _bruteforce_midpoint_rule),
    ):
        for width in widths:
            for sup in combinations(range(width), weight):
                row = tuple(1 if i in sup else 0 for i in range(width))
                sets.append((enumerate_vertices(build(BinaryMatrix.from_rows([row]))), rule))
    return sets


def _chvatal_rule(vertices: Sequence[Bits]) -> Rule:
    """Chvatal's criterion (JCTB 1975): stable sets S and T span an edge
    of STAB(G) iff G[S xor T] is connected.  Two vertices of G are
    joined iff no stable set in the vertex set holds both."""
    d = len(vertices[0])
    together = {(i, j) for x in vertices for i in range(d) for j in range(d) if x[i] and x[j]}

    def adjacent(u: Bits, v: Bits) -> bool:
        inside = {k for k in range(d) if u[k] != v[k]}
        reached: set[int] = set()
        frontier = [min(inside)]
        while frontier:
            i = frontier.pop()
            if i not in reached:
                reached.add(i)
                frontier.extend(j for j in inside if (i, j) not in together)
        return reached == inside

    return adjacent


def _product_rule(vertices: Sequence[Bits]) -> Rule:
    """A single-row double-cover polytope is an octahedron on the row's
    four support coordinates times a cube on the free ones, the
    coordinates every vertex can flip.  A pair is adjacent iff it is
    adjacent in one factor and equal in the other: octahedron vertices
    iff they are not complements (two differing coordinates, not four),
    cube vertices iff they differ in one coordinate."""
    members = set(vertices)
    free = {
        k for k in range(len(vertices[0]))
        if all(x[:k] + (1 - x[k],) + x[k + 1:] in members for x in vertices)
    }

    def adjacent(u: Bits, v: Bits) -> bool:
        diff = [k for k in range(len(u)) if u[k] != v[k]]
        cube = sum(k in free for k in diff)
        return (cube, len(diff) - cube) in ((1, 0), (0, 2))

    return adjacent


def _bruteforce_midpoint_rule(vertices: Sequence[Bits]) -> Rule:
    """The midpoint rule by support-subset search: u and v are adjacent
    iff their midpoint is not a convex combination of the other
    vertices.  Only vertices agreeing with u and v wherever those agree
    can take part, and only the coordinates where u and v differ (all
    1/2 there) need checking, which keeps the subsets few."""

    def adjacent(u: Bits, v: Bits) -> bool:
        same = [k for k in range(len(u)) if u[k] == v[k]]
        diff = [k for k in range(len(u)) if u[k] != v[k]]
        agreeing = [
            tuple(x[k] for k in diff)
            for x in vertices
            if x != u and x != v and all(x[k] == u[k] for k in same)
        ]
        half = tuple(Fraction(1, 2) for _ in diff)
        return not agreeing or in_convex_hull_bruteforce(half, agreeing) is None

    return adjacent


def run_family_midpoint_sweep(*, progress: Progress | None = None) -> AdjacencyCrosscheckResult:
    """Compare the adjacency decision on every vertex pair of
    family-built polytopes against rules that run no LP: Chvatal's
    criterion on stable-set polytopes, the octahedron-times-cube product
    on single-row double-cover polytopes, and the midpoint rule by
    support-subset search on adjacency-family polytopes."""
    return _crosscheck(family_vertex_sets(), "family vertex sets", progress)


# ---- pair extension sweep ----------------------------------------------------


@dataclass
class PairSweepResult:
    graphs: int = 0
    buckets: int = 0
    families: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def all_hold(self) -> bool:
        return self.families > 0 and not self.failures


def _equal_sum_classes(
    words: Sequence[int], dim: int
) -> Iterator[tuple[tuple[int, ...], list[tuple[int, int]]]]:
    """Each coordinate sum shared by three or more pairs of the vertex
    words, with those pairs as index pairs (i, j), i < j.  Sums come in
    increasing order of their base-4 packing, coordinate 0 the lowest
    digit (digits never exceed two, so addition cannot carry)."""
    # a word's binary digits, reversed and read in base 4, are its packing
    enc = [int(bin(w | 1 << dim)[:2:-1] or "0", 4) for w in words]
    classes: dict[int, list[tuple[int, int]]] = {}
    for i in range(len(enc)):
        ei = enc[i]
        for j in range(i + 1, len(enc)):
            classes.setdefault(ei + enc[j], []).append((i, j))
    for key, index_pairs in sorted(classes.items()):
        if len(index_pairs) >= 3:
            yield tuple((key >> (2 * i)) & 3 for i in range(dim)), index_pairs


def run_pair_extension_sweep(*, progress: Progress | None = None) -> PairSweepResult:
    """Refute every sampled odd-size family of equal-sum stable pairs.

    All 33,866 graphs on 2 to 6 vertices are enumerated, then 5,000
    random graphs on 7 and 5,000 on 8 vertices are drawn (seed
    20260821).  For each realized sum with at least three pairs,
    odd-size families are drawn (the first twelve triples, the largest
    odd prefix, and six random odd subsets) and refute_face must
    deliver a valid witness for each: in the polytope, on the right
    sum, absent from the inputs, present in the oracle's pair list.
    """
    rng = random.Random(20260821)
    result = PairSweepResult()

    def visit(g: Graph) -> None:
        result.graphs += 1
        words = vertex_words(stable(g))
        vertices = [bits_from_int(w, g.vertex_count) for w in words]
        vert_set = set(vertices)
        for total, index_pairs in _equal_sum_classes(words, g.vertex_count):
            result.buckets += 1
            pair_list = [(vertices[i], vertices[j]) for i, j in index_pairs]
            oracle_pairs = {
                frozenset(p) for p in pair_extension_oracle(g, total)
            }
            if {frozenset(p) for p in pair_list} != oracle_pairs:
                result.failures.append(f"oracle disagrees with pair scan on {g} sum {total}")
                continue
            for subset in odd_index_subsets(rng, len(pair_list)):
                family = [pair_list[i] for i in subset]
                result.families += 1
                try:
                    refutation = refute_face(g, family)
                except PolytopeError as exc:
                    result.failures.append(f"refutation failed on {g} sum {total}: {exc}")
                    continue
                w = refutation.witness
                new_pair = frozenset((w.y_star, w.y_star_bar))
                if w.y_star not in vert_set or w.y_star_bar not in vert_set:
                    result.failures.append(f"witness outside polytope on {g} sum {total}")
                elif tuple(a + b for a, b in zip(w.y_star, w.y_star_bar)) != total:
                    result.failures.append(f"witness sum mismatch on {g} sum {total}")
                elif any(frozenset(p) == new_pair for p in family):
                    result.failures.append(f"witness repeats an input on {g} sum {total}")
                elif new_pair not in oracle_pairs:
                    result.failures.append(f"witness missing from oracle on {g} sum {total}")
        if result.graphs % 2000 == 0:
            _tick(progress, f"{result.graphs} graphs, {result.families} families")

    for nv in range(2, 7):
        for g in all_graphs(nv):
            visit(g)
    for nv in (7, 8):
        for _ in range(5000):
            visit(random_graph(rng, nv))
    return result


# ---- face corollary sweep ----------------------------------------------------


@dataclass
class FaceCorollaryResult:
    graphs: int = 0
    subsets: int = 0
    counterexamples: list[str] = field(default_factory=list)

    @property
    def all_hold(self) -> bool:
        return self.subsets > 0 and not self.counterexamples


def run_face_corollary_sweep(*, progress: Progress | None = None) -> FaceCorollaryResult:
    """Exhaustively confirm that no odd-size collection of three or more
    distinct equal-sum pairs is the vertex set of a face, over all
    graphs on 2 to 6 vertices whose stable-set polytope has at most
    twelve vertices."""
    result = FaceCorollaryResult()
    for nv in range(2, 7):
        for g in all_graphs(nv):
            words = vertex_words(stable(g))
            if len(words) > 12:
                continue
            result.graphs += 1
            vertices = [bits_from_int(w, nv) for w in words]
            for total, index_pairs in _equal_sum_classes(words, nv):
                for size in range(3, len(index_pairs) + 1, 2):
                    for chosen in combinations(index_pairs, size):
                        face = [vertices[k] for pair in chosen for k in pair]
                        result.subsets += 1
                        if is_face(face, vertices) is not None:
                            result.counterexamples.append(
                                f"face of {size} pairs on {g} sum {total}"
                            )
            _tick(progress, f"{result.graphs} graphs, {result.subsets} subsets")
    return result


# ---- command line ------------------------------------------------------------

_SWEEPS: dict[str, dict[str, Callable[..., object]]] = {
    "matsui": {"matsui": run_matsui_sweep},
    "chain": {"chain": run_chain_sweep},
    "hull": {
        "membership": run_hull_crosscheck,
        "segment": run_adjacency_crosscheck,
        "midpoint": run_family_midpoint_sweep,
    },
    "pairs": {"pairs": run_pair_extension_sweep},
    "face": {"face": run_face_corollary_sweep},
}


def main(argv: Sequence[str] | None = None) -> int:
    """Run one sweep: progress on stderr, the result fields on stdout,
    exit 0 iff every property held."""
    parser = argparse.ArgumentParser(prog="python -m polyadj.sweeps", description=main.__doc__)
    parser.add_argument("name", choices=tuple(_SWEEPS))
    args = parser.parse_args(argv)

    def tick(message: str) -> None:
        print(message, file=sys.stderr, end="\r")

    results = {label: sweep(progress=tick) for label, sweep in _SWEEPS[args.name].items()}
    print(file=sys.stderr)
    ok = True
    for label, result in results.items():
        for f in fields(result):
            value = getattr(result, f.name)
            if isinstance(value, list):
                print(f"{label}.{f.name}: {len(value)}")
                for item in value:
                    print(f"  {item}")
            else:
                print(f"{label}.{f.name}: {value}")
        ok = ok and result.all_hold
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
