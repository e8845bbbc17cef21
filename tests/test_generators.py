"""The family sampler the pair extension sweep draws from."""

import random
from itertools import combinations

from polyadj.generators import odd_index_subsets


def test_odd_index_subsets():
    for universe in range(3, 10):
        subsets = odd_index_subsets(random.Random(universe), universe)
        assert subsets == sorted(set(subsets))
        for s in subsets:
            assert list(s) == sorted(set(s))
            assert all(0 <= i < universe for i in s)
            assert len(s) % 2 == 1 and len(s) >= 3
        triples = list(combinations(range(universe), 3))
        assert len(triples[:12]) == min(12, len(triples))
        assert set(triples[:12]) <= set(subsets)
        largest = universe if universe % 2 == 1 else universe - 1
        assert tuple(range(largest)) in subsets
        assert subsets == odd_index_subsets(random.Random(universe), universe)
