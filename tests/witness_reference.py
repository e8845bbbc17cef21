"""Reference tuple-based witness construction, kept for differential tests.

These are the tuple, frozenset and membership-loop versions of the
pair family, t search, witness, refutation and pair oracle that the int
word versions in ``polyadj.witness`` replaced, together with the loop
pack/unpack of bit vectors they relied on.  The word versions must give
the identical values, or raise the same exception with the same message,
on every input.
"""

from dataclasses import dataclass
from fractions import Fraction

from polyadj.errors import (
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
from polyadj.hull import enumerate_vertices
from polyadj.model import DEFAULT_ENUMERATION_CAP, as_bits, membership, stable
from polyadj.witness import Witness


def bits_from_int(word, dim):
    return tuple((word >> (dim - 1 - i)) & 1 for i in range(dim))


def bits_to_int(x):
    word = 0
    for b in x:
        word = (word << 1) | b
    return word


def vector_sum(x, y):
    if len(x) != len(y):
        raise DimensionMismatch(len(x), len(y))
    return tuple(a + b for a, b in zip(x, y))


@dataclass(frozen=True)
class PairFamily:
    graph: object
    pairs: tuple
    total: tuple
    fixed: frozenset
    active: frozenset
    j0: int
    indicator: tuple
    k: int
    working: int


@dataclass(frozen=True)
class Refutation:
    family: PairFamily
    witness: Witness
    midpoint: tuple


def build_pair_family(graph, pairs):
    if len(pairs) < 3:
        raise TooFewPairs(len(pairs))
    code = stable(graph)
    d = graph.vertex_count
    checked = []
    for idx, (u, v) in enumerate(pairs):
        ub, vb = as_bits(u), as_bits(v)
        if len(ub) != d or len(vb) != d:
            raise DimensionMismatch(d, len(ub) if len(ub) != d else len(vb))
        if not membership(code, ub) or not membership(code, vb):
            raise NotInStablePolytope(idx)
        checked.append((ub, vb))
    if checked[0][0] == checked[0][1]:
        raise DegeneratePair()
    total = vector_sum(*checked[0])
    for idx in range(1, len(checked)):
        if vector_sum(*checked[idx]) != total:
            raise UnequalSums(idx)
    seen = set()
    for idx, (ub, vb) in enumerate(checked):
        key = frozenset((ub, vb))
        if key in seen:
            raise DuplicatePairs(idx)
        seen.add(key)
    active = frozenset(i for i, s in enumerate(total) if s == 1)
    if not active:
        raise DegeneratePair()
    fixed = frozenset(range(d)) - active
    j0 = min(active)
    oriented = tuple((u, v) if u[j0] == 1 else (v, u) for u, v in checked)
    indicator = tuple(
        frozenset(j for j in active if y[j] == 1) for y, _ in oriented
    )
    working = len(oriented) if len(oriented) % 2 == 1 else len(oriented) - 1
    return PairFamily(
        graph=graph,
        pairs=oriented,
        total=total,
        fixed=fixed,
        active=active,
        j0=j0,
        indicator=indicator,
        k=(working - 1) // 2,
        working=working,
    )


def find_t(family):
    u = family.indicator
    active = family.active
    for t in range(2, family.working):
        s = u[0] ^ u[1] ^ u[t]
        if all(s != u[p] and s != active - u[p] for p in range(len(u))):
            return t, s
    if family.working < len(family.pairs):
        raise EvenFamilyBlocked()
    raise InvariantViolation("no valid symmetric difference found in an odd family")


def construct_witness(family, s_set, t=None):
    s = frozenset(s_set)
    if not s <= family.active:
        raise InputError("witness support must lie inside the active coordinate set")
    lead = family.pairs[0][0]
    d = family.graph.vertex_count
    y_star = tuple(
        lead[i] if i in family.fixed else int(i in s) for i in range(d)
    )
    y_bar = tuple(
        lead[i] if i in family.fixed else int(i in family.active - s) for i in range(d)
    )
    code = stable(family.graph)
    if not membership(code, y_star) or not membership(code, y_bar):
        raise MembershipViolation("constructed pair member is not a stable-set vertex")
    if vector_sum(y_star, y_bar) != family.total:
        raise InvariantViolation("constructed pair breaks the common sum")
    return Witness(y_star=y_star, y_star_bar=y_bar, t=t, s_set=s)


def refute_face(graph, pairs):
    family = build_pair_family(graph, pairs)
    t, s = find_t(family)
    witness = construct_witness(family, s, t)
    new_pair = frozenset((witness.y_star, witness.y_star_bar))
    for u, v in family.pairs:
        if frozenset((u, v)) == new_pair:
            raise InvariantViolation("witness pair duplicates an input pair")
    midpoint = tuple(Fraction(v, 2) for v in family.total)
    return Refutation(family=family, witness=witness, midpoint=midpoint)


def pair_extension_oracle(graph, total, *, max_dim=DEFAULT_ENUMERATION_CAP):
    d = graph.vertex_count
    if len(total) != d:
        raise DimensionMismatch(d, len(total))
    for v in total:
        if v not in (0, 1, 2):
            raise InputError(f"coordinate sums must be 0, 1, or 2, got {v}")
    verts = enumerate_vertices(stable(graph), max_dim=max_dim)
    vert_set = set(verts)
    out = []
    for y in verts:
        z = tuple(s - b for s, b in zip(total, y))
        if any(b not in (0, 1) for b in z):
            continue
        if y < z and z in vert_set:
            out.append((y, z))
    return out
