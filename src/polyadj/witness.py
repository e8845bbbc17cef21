"""Witness construction refuting face embeddings of equal-sum pair families.

Given an odd number (at least three) of distinct vertex pairs of a
stable-set polytope, all sharing one coordinate sum, there is always a
further pair with the same sum, built explicitly from the symmetric
difference of three of the family's indicator sets.  Consequence: no
such family is ever the complete vertex set of a face, because the new
pair's midpoint coincides with the family's common midpoint.

The construction: coordinates where the pairs agree are frozen, the
rest form the active set J.  Each pair is oriented by its value at the
smallest active coordinate, giving indicator sets U_i inside J that all
contain that coordinate and are pairwise distinct.  A parity count over
an odd family shows some t >= 2 makes S = U_0 xor U_1 xor U_t distinct
from every U_p and every complement J - U_p; the vertex with active
support S and its counterpart form the new pair, and a swap argument
over the four index classes shows both are stable.

Every step runs on int words, one bit per coordinate with coordinate 0
the most significant, as hull.vertex_words enumerates them: a pair's
sum is the two words u & v (coordinates summing to two) and u ^ v
(summing to one, the active set J), an indicator set is u & J, S is an
XOR of three words and a complement is an XOR with J.  Bits tuples and
index sets appear only at the API boundary: the pairs taken in, the
views PairFamily offers, and the Witness and Refutation handed out.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Iterable, Sequence

from .errors import (
    DegeneratePair,
    DimensionMismatch,
    DuplicatePairs,
    EvenFamilyBlocked,
    InputError,
    InvariantViolation,
    MembershipViolation,
    NotInStablePolytope,
    TooFewPairs,
    UnequalSums,
)
from .hull import vertex_words
from .model import (
    Bits,
    Graph,
    as_bits,
    as_pair,
    as_tuple,
    bits_from_int,
    bits_to_int,
    membership,
    stable,
    stable_edge_masks,
)

Pair = tuple[Bits, Bits]


@cache
def _half(v: int) -> Fraction:
    # built on first use, not at import: Fractions made during import
    # were seen to speed up the Fraction-arithmetic probe that scales
    # the benchmark's set-up time, reading as a slower set-up
    return Fraction(v, 2)


def _index_set(word: int, d: int) -> frozenset[int]:
    return frozenset(i for i, b in enumerate(bits_from_int(word, d)) if b)


@dataclass(frozen=True)
class PairFamily:
    """A validated family of distinct equal-sum stable pairs, as words.

    words holds every input pair as two int words, oriented so the
    designated member has a one at the smallest active coordinate; twos
    and ones are the words of the coordinates where the common sum is
    two and one.  The views total (the sum vector) and active (the
    coordinates summing to one) are derived from them.
    """

    graph: Graph
    words: tuple[tuple[int, int], ...]
    twos: int
    ones: int

    @property
    def total(self) -> tuple[int, ...]:
        d = self.graph.vertex_count
        return tuple(
            2 * a + b for a, b in zip(bits_from_int(self.twos, d), bits_from_int(self.ones, d))
        )

    @property
    def active(self) -> frozenset[int]:
        return _index_set(self.ones, self.graph.vertex_count)


@dataclass(frozen=True)
class Witness:
    y_star: Bits
    y_star_bar: Bits
    t: int | None
    s_set: frozenset[int]


@dataclass(frozen=True)
class Refutation:
    family: PairFamily
    witness: Witness
    midpoint: tuple[Fraction, ...]


def _is_stable(word: int, masks: list[int]) -> bool:
    for m in masks:
        if word & m == m:
            return False
    return True


def build_pair_family(graph: Graph, pairs: Sequence[tuple[Sequence[int], Sequence[int]]]) -> PairFamily:
    """Validate and orient a family of equal-sum stable pairs.

    Checks, in order: a sequence of at least three entries, each a
    pair, every member a stable-set vertex of the graph, equal
    coordinate sums, pairwise distinct pairs, and a nondegenerate lead
    pair.  The orientation is then forced, no choices remain.
    """
    pairs = as_tuple(pairs, "pair family")
    if len(pairs) < 3:
        raise TooFewPairs(len(pairs))
    d = graph.vertex_count
    masks = stable_edge_masks(graph)
    words: list[tuple[int, int]] = []
    for idx, pair in enumerate(pairs):
        u, v = as_pair(pair, "family entry", idx)
        ub, vb = as_bits(u), as_bits(v)
        if len(ub) != d or len(vb) != d:
            raise DimensionMismatch(d, len(ub) if len(ub) != d else len(vb))
        uw, vw = bits_to_int(ub), bits_to_int(vb)
        if not (_is_stable(uw, masks) and _is_stable(vw, masks)):
            raise NotInStablePolytope(idx)
        words.append((uw, vw))
    u0, v0 = words[0]
    if u0 == v0:
        raise DegeneratePair()
    # two 0/1 vectors have the same sum iff they agree on both words
    twos, ones = u0 & v0, u0 ^ v0
    for idx, (uw, vw) in enumerate(words):
        if uw & vw != twos or uw ^ vw != ones:
            raise UnequalSums(idx)
    # orient at the smallest active coordinate, the top bit of ones;
    # both orders of a pair orient alike, so a repeat is equal here
    j0_bit = 1 << (ones.bit_length() - 1)
    oriented = tuple(w if w[0] & j0_bit else w[::-1] for w in words)
    seen: set[tuple[int, int]] = set()
    for idx, w in enumerate(oriented):
        if w in seen:
            raise DuplicatePairs(idx)
        seen.add(w)
    return PairFamily(graph=graph, words=oriented, twos=twos, ones=ones)


def _find_t_word(family: PairFamily) -> tuple[int, int]:
    ones = family.ones
    u = [y & ones for y, _ in family.words]
    blocked = set(u)
    blocked.update(ones ^ x for x in u)
    u01 = u[0] ^ u[1]
    # an odd family is searched whole, an even one without its last pair
    working = len(u) if len(u) % 2 else len(u) - 1
    for t in range(2, working):
        s = u01 ^ u[t]
        if s not in blocked:
            return t, s
    if working < len(u):
        raise EvenFamilyBlocked()
    raise InvariantViolation("no valid symmetric difference found in an odd family")


def find_t(family: PairFamily) -> tuple[int, frozenset[int]]:
    """Smallest t in 2..2k with S = U_0 xor U_1 xor U_t distinct from
    every indicator and complement indicator in the whole family (U_i
    the active support of pair i's designated member, 2k+1 the size of
    the searched prefix: the family, less its last pair when even).

    For an odd family this always succeeds: at most half the candidate
    indices can collide with an indicator (collisions pair up), and no
    candidate ever collides with a complement because the smallest
    active coordinate lands in S.  An even family can be blocked by its
    excluded pair alone, as the 3-cube's four complementary pairs are;
    the theorem does not cover it, so that raises EvenFamilyBlocked, an
    InputError (exit 2 on the command line).
    """
    t, s = _find_t_word(family)
    return t, _index_set(s, family.graph.vertex_count)


def _witness(family: PairFamily, s: int, t: int | None) -> tuple[Witness, tuple[int, int]]:
    ones = family.ones
    # the lead's frozen coordinates, with the active ones cleared
    frozen = family.words[0][0] & ~ones
    y_star, y_bar = frozen | s, frozen | (ones ^ s)
    d = family.graph.vertex_count
    y_star_bits, y_bar_bits = bits_from_int(y_star, d), bits_from_int(y_bar, d)
    code = stable(family.graph)
    if not membership(code, y_star_bits) or not membership(code, y_bar_bits):
        raise MembershipViolation("constructed pair member is not a stable-set vertex")
    if y_star & y_bar != family.twos or y_star ^ y_bar != ones:
        raise InvariantViolation("constructed pair breaks the common sum")
    return Witness(y_star_bits, y_bar_bits, t, _index_set(s, d)), (y_star, y_bar)


def construct_witness(
    family: PairFamily, s_set: Iterable[int], t: int | None = None
) -> Witness:
    """Build the new pair from an active support set and check both
    members against the stable-set polytope.

    Raises MembershipViolation if either member escapes the polytope,
    which the swap argument rules out for any S produced by find_t.
    """
    s = frozenset(s_set)
    if not s <= family.active:
        raise InputError("witness support must lie inside the active coordinate set")
    word = bits_to_int(tuple(int(i in s) for i in range(family.graph.vertex_count)))
    return _witness(family, word, t)[0]


def refute_face(
    graph: Graph, pairs: Sequence[tuple[Sequence[int], Sequence[int]]]
) -> Refutation:
    """Produce a same-sum pair outside the given family.

    The witness shares the family's coordinate sum, so the common
    midpoint lies in the hull of the witness pair; a face containing
    the whole family would have to contain the witness too, hence the
    family is never the complete vertex set of a face.
    """
    family = build_pair_family(graph, pairs)
    t, s = _find_t_word(family)
    witness, pair = _witness(family, s, t)
    if pair in family.words or pair[::-1] in family.words:
        raise InvariantViolation("witness pair duplicates an input pair")
    midpoint = tuple(map(_half, family.total))
    return Refutation(family=family, witness=witness, midpoint=midpoint)


def pair_extension_oracle(graph: Graph, total: Sequence[int]) -> list[Pair]:
    """All unordered stable-vertex pairs with the given coordinate sum,
    lexicographic by smaller member.

    Linear in the vertex count: a vertex y with the sum's frozen
    coordinates has the forced counterpart y xor J, looked up in a hash
    set.
    """
    d = graph.vertex_count
    total = as_tuple(total, "coordinate sum")
    if len(total) != d:
        raise DimensionMismatch(d, len(total))
    for v in total:
        if not isinstance(v, int) or v not in (0, 1, 2):
            raise InputError(f"coordinate sums must be 0, 1, or 2, got {v!r}")
    twos = bits_to_int(tuple(int(v == 2) for v in total))
    ones = bits_to_int(tuple(int(v == 1) for v in total))
    frozen = ~ones
    words = vertex_words(stable(graph))
    members = set(words)
    out: list[Pair] = []
    # words increase, so y < z orders the pair as Bits tuples too
    for y in words:
        if y & frozen == twos:
            z = y ^ ones
            if y < z and z in members:
                out.append((bits_from_int(y, d), bits_from_int(z, d)))
    return out
