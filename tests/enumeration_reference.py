"""Reference recursive vertex search, kept for differential tests.

This is the ``_pruned_search`` that ``polyadj.hull`` replaced by a
stateless explicit-stack search over prefix words: it recurses once per
coordinate and keeps per-row counts of the ones set and the coordinates
left, undoing them after each branch.  Both searches must return the
identical word list, in the same order, on every constraint system.
"""

from typing import Sequence


def _pruned_search(d: int, constraints: Sequence[tuple[tuple[int, ...], int, int]]) -> list[int]:
    lo = [c[1] for c in constraints]
    hi = [c[2] for c in constraints]
    rem = [len(c[0]) for c in constraints]
    for ci in range(len(constraints)):
        if lo[ci] > rem[ci] or hi[ci] < 0:
            return []
    by_coord: list[list[int]] = [[] for _ in range(d)]
    for ci, (support, _, _) in enumerate(constraints):
        for i in support:
            by_coord[i].append(ci)
    cnt = [0] * len(constraints)
    out: list[int] = []

    def descend(i: int, acc: int) -> None:
        if i == d:
            out.append(acc)
            return
        cs = by_coord[i]
        for c in cs:
            rem[c] -= 1
        ok = True
        for c in cs:
            if cnt[c] + rem[c] < lo[c]:
                ok = False
                break
        if ok:
            descend(i + 1, acc << 1)
        ok = True
        for c in cs:
            v = cnt[c] + 1
            if v > hi[c] or v + rem[c] < lo[c]:
                ok = False
                break
        if ok:
            for c in cs:
                cnt[c] += 1
            descend(i + 1, (acc << 1) | 1)
            for c in cs:
                cnt[c] -= 1
        for c in cs:
            rem[c] += 1

    try:
        descend(0, 0)
    finally:
        # descend holds itself through its closure cell; unbinding it
        # frees the search state now instead of at the next collection
        del descend
    return out
