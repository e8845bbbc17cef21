"""Instance generators for sweeps and property tests.

Everything here is deterministic: exhaustive generators iterate in a
fixed order, and randomized ones take an explicit random.Random.
"""

from __future__ import annotations

import random
from itertools import combinations, combinations_with_replacement, islice
from typing import Iterator, Sequence

from .model import BinaryMatrix, Bits, Graph


def weight_three_rows(n: int) -> list[Bits]:
    """Every 0/1 row of length n with exactly three ones, sorted."""
    rows = []
    for support in combinations(range(n), 3):
        row = [0] * n
        for i in support:
            row[i] = 1
        rows.append(tuple(row))
    return rows


def three_ones_matrices(n: int, m: int) -> Iterator[BinaryMatrix]:
    """All m-row matrices over the weight-three rows of width n, one per
    row multiset (row order never matters to the coded polytopes)."""
    for rows in combinations_with_replacement(weight_three_rows(n), m):
        yield BinaryMatrix(tuple(rows), n)


def infeasible_four_by_four() -> BinaryMatrix:
    """The 4x4 instance with every weight-three row over four columns;
    its partition system is infeasible by a column-sum count."""
    return BinaryMatrix(tuple(weight_three_rows(4)), 4)


def all_graphs(vertex_count: int, *, min_edges: int = 0) -> Iterator[Graph]:
    """Every labeled graph on the given vertices, by edge subset."""
    slots = list(combinations(range(vertex_count), 2))
    for k in range(min_edges, len(slots) + 1):
        for chosen in combinations(slots, k):
            yield Graph(vertex_count, chosen)


def random_graph(rng: random.Random, vertex_count: int) -> Graph:
    """A graph with each edge present with probability one half."""
    edges = [(u, v) for u, v in combinations(range(vertex_count), 2) if rng.random() < 0.5]
    return Graph(vertex_count, tuple(edges))


def random_vertex_set(
    rng: random.Random, dim: int, count: int
) -> list[Bits]:
    """count distinct random 0/1 points of the given dimension."""
    if count > 1 << dim:
        raise ValueError("cannot draw that many distinct points")
    seen: set[Bits] = set()
    while len(seen) < count:
        seen.add(tuple(rng.randrange(2) for _ in range(dim)))
    return sorted(seen)


def odd_index_subsets(rng: random.Random, universe: int) -> list[tuple[int, ...]]:
    """Odd-size index subsets (size >= 3) of range(universe) for family
    sampling: the first twelve triples, the largest odd prefix,
    and six random odd-size draws."""
    out: list[tuple[int, ...]] = list(islice(combinations(range(universe), 3), 12))
    largest = universe if universe % 2 == 1 else universe - 1
    if largest >= 3:
        out.append(tuple(range(largest)))
    sizes = list(range(3, universe + 1, 2))
    for _ in range(6):
        if not sizes:
            break
        size = rng.choice(sizes)
        out.append(tuple(sorted(rng.sample(range(universe), size))))
    return sorted(set(out))
