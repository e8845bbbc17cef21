"""The midpoint-first adjacency decision against the face-first order it
replaced, plus the exact pre-test that lets it skip the midpoint LP."""

import random
from fractions import Fraction
from itertools import combinations

from hypothesis import given
from hypothesis import strategies as st

from adjacency_reference import are_adjacent as face_first
from polyadj import simplex
from polyadj.generators import infeasible_four_by_four, random_vertex_set
from polyadj.hull import (
    _midpoint_may_be_inside,
    are_adjacent,
    enumerate_vertices,
    in_convex_hull_bruteforce,
)
from polyadj.matsui import special_vertices
from polyadj.model import BinaryMatrix, dcp, npadj
from polyadj.sweeps import family_vertex_sets, matsui_instance_family

README_SET = [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)]


def _corpus():
    """Vertex sets and the pairs to decide on them: every third pair of
    every family set, every pair of the README's set and of 40 random
    sets, and the special pair of every 25th matsui instance and of the
    infeasible 4x4 instance."""
    for vertices, _ in family_vertex_sets():
        yield vertices, list(combinations(vertices, 2))[::3]
    yield README_SET, list(combinations(README_SET, 2))
    rng = random.Random(20261018)
    for _ in range(40):
        d = rng.randint(2, 5)
        vertices = random_vertex_set(rng, d, rng.randint(3, min(10, 1 << d)))
        yield vertices, list(combinations(vertices, 2))
    for a in matsui_instance_family()[::25] + [infeasible_four_by_four()]:
        yield enumerate_vertices(npadj(a)), [special_vertices(a)]


def test_verdicts_match_face_first_order():
    pairs = 0
    kinds = set()
    for vertices, pair_list in _corpus():
        for u, v in pair_list:
            verdict = are_adjacent(vertices, u, v)
            assert repr(verdict) == repr(face_first(vertices, u, v)), (vertices, u, v)
            pairs += 1
            kinds.add(
                "face" if verdict.face_certificate
                else "midpoint" if verdict.midpoint_certificate
                else "segment"
            )
    assert pairs > 3500
    assert kinds == {"face", "midpoint", "segment"}


_vertex_sets = st.integers(min_value=1, max_value=5).flatmap(
    lambda d: st.lists(
        st.tuples(*[st.integers(min_value=0, max_value=1)] * d),
        min_size=3,
        max_size=12,
        unique=True,
    )
)


@given(_vertex_sets, st.data())
def test_pre_test_rejects_only_outside_midpoints(vertices, data):
    u, v = data.draw(st.lists(st.sampled_from(vertices), min_size=2, max_size=2, unique=True))
    rest = [x for x in vertices if x != u and x != v]
    if not _midpoint_may_be_inside(u, v, rest):
        midpoint = tuple(Fraction(a + b, 2) for a, b in zip(u, v))
        assert in_convex_hull_bruteforce(midpoint, rest) is None


def _count_lps(monkeypatch):
    calls = []
    solve = simplex.feasible_point

    def counting(rows, rhs):
        calls.append(rhs)
        return solve(rows, rhs)

    monkeypatch.setattr(simplex, "feasible_point", counting)
    return calls


def test_non_adjacent_special_pair_runs_one_lp(monkeypatch):
    a = BinaryMatrix.from_rows([[1, 1, 1, 0], [0, 1, 1, 1]])
    vertices = enumerate_vertices(npadj(a))
    x0, x0bar = special_vertices(a)
    calls = _count_lps(monkeypatch)
    verdict = are_adjacent(vertices, x0, x0bar)
    assert not verdict.adjacent and verdict.midpoint_certificate is not None
    assert len(calls) == 1


def test_adjacent_pairs_the_pre_test_rejects_run_at_most_one_lp(monkeypatch):
    prism = enumerate_vertices(dcp(BinaryMatrix.from_rows([[1, 1, 1, 1, 0]])))
    rng = random.Random(7)
    sets = [prism] + [random_vertex_set(rng, 4, 9) for _ in range(10)]
    calls = _count_lps(monkeypatch)
    checked = 0
    for vertices in sets:
        for u, v in combinations(vertices, 2):
            rest = [x for x in vertices if x != u and x != v]
            if _midpoint_may_be_inside(u, v, rest):
                continue
            calls.clear()
            assert are_adjacent(vertices, u, v).adjacent
            assert len(calls) <= 1
            checked += 1
    assert checked > 50
