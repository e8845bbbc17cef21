"""The four benchmark workloads.

A workload turns a seed into an endless, deterministic stream of items
(one instance, pair, graph or command each), runs one item through
polyadj's public functions, re-checks the answer with the independent
code in oracle.py, and renders it as canonical text for the digest.
Inputs are generated here, never by polyadj, and generation calls no
enumeration, so every item starts with nothing cached for its codes.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from pathlib import Path

import polyadj
import polyadj.cli

import oracle


def _graph_text(nv, edges):
    return f"p {nv} {len(edges)}\n" + "".join(f"e {u + 1} {v + 1}\n" for u, v in edges)


def _matrix_text(rows, n):
    return f"{len(rows)} {n}\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows)


def _word(x):
    return "".join(map(str, x))


def _rat(q):
    return f"{q.numerator}/{q.denominator}"


def _random_edges(rng, nv, p):
    return [e for e in combinations(range(nv), 2) if rng.random() < p]


def _van_der_corput(k):
    """The k-th point of the base-2 van der Corput sequence in (0, 1)."""
    x, scale = 0.0, 0.5
    while k:
        if k & 1:
            x += scale
        k >>= 1
        scale /= 2
    return x


def _binomial_quantile(n, u):
    """Smallest m with P(Bin(n, 1/2) <= m) > u."""
    cdf = 0
    for m in range(n + 1):
        cdf += math.comb(n, m)
        if u * 2 ** n < cdf:
            return m
    return n


def _stable_count(nv, edges):
    """Number of stable sets, by branching on the highest vertex."""
    nbr = [0] * nv
    for u, v in edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u

    def count(cand):
        if not cand:
            return 1
        v = cand.bit_length() - 1
        rest = cand & ~(1 << v)
        return count(rest) + count(rest & ~nbr[v])

    return count((1 << nv) - 1)


def _weight_rows(n, k):
    return [tuple(int(j in s) for j in range(n)) for s in combinations(range(n), k)]


def _sum_buckets(vertices):
    """Index pairs grouped by coordinate sum, packed two bits per
    coordinate (digits never exceed two, so sums never carry)."""
    enc = [sum(b << (2 * i) for i, b in enumerate(x)) for x in vertices]
    buckets = {}
    for i in range(len(enc)):
        for j in range(i + 1, len(enc)):
            buckets.setdefault(enc[i] + enc[j], []).append((i, j))
    return buckets


def _decode(key, dim):
    return tuple((key >> (2 * i)) & 3 for i in range(dim))


def _odd_subsets(rng, universe, triples=12, draws=6):
    """Odd index subsets of size >= 3, as the pair extension sweep picks
    them: the first triples, the largest odd prefix, random odd draws."""
    out = list(combinations(range(universe), 3))[:triples]
    largest = universe if universe % 2 else universe - 1
    if largest >= 3:
        out.append(tuple(range(largest)))
    sizes = list(range(3, universe + 1, 2))
    for _ in range(draws):
        out.append(tuple(sorted(rng.sample(range(universe), rng.choice(sizes)))))
    return sorted(set(out))


def _interleave(rng, classes):
    """Shuffle each class, then merge them so that every prefix of the
    result holds the classes in proportion to their sizes."""
    keyed = []
    for c, members in enumerate(classes):
        members = list(members)
        rng.shuffle(members)
        keyed.extend(((j + 0.5) / len(members), c, m) for j, m in enumerate(members))
    keyed.sort(key=lambda t: t[:2])
    return [m for _, _, m in keyed]


def _equal_sum_family(rng, vertices, size):
    """`size` distinct pairs sharing one coordinate sum, randomly
    oriented and ordered, or None when no sum has enough pairs."""
    buckets = [b for b in _sum_buckets(vertices).values() if len(b) >= size]
    if not buckets:
        return None
    chosen = rng.sample(rng.choice(sorted(buckets)), size)
    pairs = []
    for i, j in chosen:
        u, v = vertices[i], vertices[j]
        pairs.append((u, v) if rng.random() < 0.5 else (v, u))
    return pairs


def _verdict_error(vertices, u, v, verdict):
    face = mid = seg = None
    if verdict.face_certificate is not None:
        face = (verdict.face_certificate.normal, verdict.face_certificate.offset)
    if verdict.midpoint_certificate is not None:
        mid = verdict.midpoint_certificate.support
    if verdict.segment_certificate is not None:
        s = verdict.segment_certificate
        seg = (s.alpha, s.point, s.support)
    return oracle.check_adjacency(vertices, u, v, verdict.adjacent, face, mid, seg)


def _verdict_text(verdict):
    parts = [str(verdict.adjacent)]
    if verdict.face_certificate is not None:
        c = verdict.face_certificate
        parts.append(" ".join(map(_rat, c.normal)) + " | " + _rat(c.offset))
    if verdict.midpoint_certificate is not None:
        parts.append(" ".join(f"{i}:{_rat(w)}" for i, w in verdict.midpoint_certificate.support))
    if verdict.segment_certificate is not None:
        s = verdict.segment_certificate
        parts.append(_rat(s.alpha) + " " + " ".join(f"{i}:{_rat(w)}" for i, w in s.support))
    return " ; ".join(parts)


class Workload:
    """Interface: items(), run(item), check(item, out), text(item, out).

    digest_items is how many leading items the digest covers, and
    rss_items after how many items peak memory is read (about a third of
    a 20 s run at the commit that defined the benchmark); every timed run
    completes at least both.  traced_calls names the traced functions
    that must record calls on this workload, idle_calls those that must
    record none.
    """

    digest_items = 0
    rss_items = 0
    traced_calls: tuple[str, ...] = ()
    idle_calls: tuple[str, ...] = ()

    def __init__(self, seed: int, workdir: Path) -> None:
        self.rng = random.Random(seed)
        self.workdir = workdir

    def prepare(self, item) -> None:
        """Untimed work before the item, such as writing its files."""


class MatsuiCriterion(Workload):
    """matsui_check on the sweep family: every multiset of weight-three
    rows of widths 3 to 5 with 1 to 4 rows (as matsui_instance_family()
    builds it), led by the infeasible 4x4 instance.  Each pass visits the
    family once, its (width, rows) classes interleaved in proportion; each
    draw permutes columns and rows, so later passes stay distinct codes."""

    digest_items = 60
    rss_items = 400
    traced_calls = (
        "matsui.matsui_check", "simplex.feasible_point", "hull.are_adjacent",
        "hull.is_face", "enum.enumerate_vertices", "model.membership",
    )

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.classes = [
            list(combinations_with_replacement(_weight_rows(n, 3), m))
            for n in (3, 4, 5)
            for m in (1, 2, 3, 4)
        ]

    def items(self):
        first = tuple(_weight_rows(4, 3))
        seen = {first}
        yield polyadj.BinaryMatrix(first, 4)
        while True:
            for rows in _interleave(self.rng, self.classes):
                n = len(rows[0])
                perm = self.rng.sample(range(n), n)
                drawn = [tuple(r[p] for p in perm) for r in rows]
                self.rng.shuffle(drawn)
                drawn = tuple(drawn)
                if drawn not in seen:
                    seen.add(drawn)
                    yield polyadj.BinaryMatrix(drawn, n)

    def run(self, a):
        return polyadj.matsui_check(a)

    def check(self, a, report):
        k = oracle.partition_count(a.rows, a.ncols)
        if report.part_count != k or report.part_empty != (k == 0):
            return f"partition count {report.part_count}, brute force {k}"
        if report.special_adjacent != (k == 0) or not report.criterion_holds:
            return "special pair adjacency does not match partition emptiness"
        if report.vertex_count != 2 + 4 * k:
            return f"vertex count {report.vertex_count} is not 2 + 4 * {k}"
        return None

    def text(self, a, r):
        return (f"{a.rows} {r.part_empty} {r.special_adjacent} {r.criterion_holds} "
                f"{r.part_count} {r.vertex_count}")


class RandomAdjacency(Workload):
    """are_adjacent on every pair of random 0/1 vertex sets (d 2-5, 3-10
    points), then ten in_convex_hull / in_convex_hull_bruteforce queries
    on random sets (d 1-4, at most 8 points), half of them convex
    combinations and half random quarter-grid points.  Dimensions and
    point counts rotate through their ranges rather than being drawn."""

    digest_items = 600
    rss_items = 4000
    traced_calls = (
        "hull.are_adjacent", "hull.is_face", "hull.in_convex_hull",
        "hull.in_convex_hull_bruteforce", "simplex.feasible_point", "linalg.gauss_solve",
    )

    def _points(self, dim, count):
        seen = set()
        while len(seen) < count:
            seen.add(tuple(self.rng.randrange(2) for _ in range(dim)))
        return sorted(seen)

    def items(self):
        rng = self.rng
        k = j = 0
        while True:
            d = 2 + k % 4
            vertices = self._points(d, 3 + (k // 4) % (min(10, 1 << d) - 2))
            k += 1
            for u, v in combinations(vertices, 2):
                yield ("pair", vertices, u, v)
            for _ in range(10):
                d = 1 + j % 4
                inside = (j // 4) % 2 == 0
                vertices = self._points(d, 1 + (j // 8) % min(8, 1 << d))
                j += 1
                if inside:
                    weights = [rng.randint(0, 4) for _ in vertices]
                    if not any(weights):
                        weights[rng.randrange(len(weights))] = 1
                    total = sum(weights)
                    point = tuple(
                        sum(Fraction(w * x[i], total) for w, x in zip(weights, vertices))
                        for i in range(d)
                    )
                else:
                    point = tuple(Fraction(rng.randint(-2, 6), 4) for _ in range(d))
                yield ("hull", vertices, point, inside)

    def run(self, item):
        if item[0] == "pair":
            _, vertices, u, v = item
            return polyadj.are_adjacent(vertices, u, v)
        _, vertices, point, _ = item
        return (polyadj.in_convex_hull(point, vertices),
                polyadj.in_convex_hull_bruteforce(point, vertices))

    def check(self, item, out):
        if item[0] == "pair":
            _, vertices, u, v = item
            return _verdict_error(vertices, u, v, out)
        _, vertices, point, inside = item
        fast, slow = out
        if (fast is None) != (slow is None):
            return "simplex and brute-force membership disagree"
        if inside and fast is None:
            return "a convex combination was reported outside the hull"
        for cert in out:
            if cert is not None:
                err = oracle.check_hull(point, cert.support, vertices)
                if err:
                    return err
        return None

    def text(self, item, out):
        if item[0] == "pair":
            return f"{item[1]} {item[2]} {item[3]} {_verdict_text(out)}"
        certs = [None if c is None else [(i, _rat(w)) for i, w in c.support] for c in out]
        return f"{item[1]} {[_rat(c) for c in item[2]]} {certs}"


class PairWitness(Workload):
    """Per graph: enumerate stable(g), bucket vertex pairs by coordinate
    sum, and for every sum with at least three pairs call
    pair_extension_oracle and refute_face on odd subfamilies, as the
    pair extension sweep does.  Graphs: all graphs on 2 to 5 vertices
    (1,098) interleaved 1098:600 with random graphs on 7 and 8 vertices.
    The random graphs follow G(n, 1/2), but their edge counts run through
    the binomial quantiles in a fixed low-discrepancy order, so the rare
    sparse graphs that dominate the cost come at the same rate in every
    seed."""

    digest_items = 300
    rss_items = 1000
    traced_calls = (
        "enum.enumerate_vertices", "witness.refute_face", "witness.pair_extension_oracle",
        "model.membership",
    )
    # the no-LP control for simplex work
    idle_calls = ("simplex.feasible_point",)

    def items(self):
        rng = self.rng
        # classed by (vertices, stable-set count), which sets an item's
        # cost, so every prefix of the stream has the same mix
        by_class = {}
        for nv in range(2, 6):
            slots = list(combinations(range(nv), 2))
            for k in range(len(slots) + 1):
                for edges in combinations(slots, k):
                    key = (nv, _stable_count(nv, edges))
                    by_class.setdefault(key, []).append((nv, edges))
        small = [by_class[key] for key in sorted(by_class)]
        seen = set()
        index = large = 0
        order = []
        while True:
            if (index + 1) * 600 // 1698 > index * 600 // 1698:
                nv = 7 + large % 2
                slots = list(combinations(range(nv), 2))
                m = _binomial_quantile(len(slots), _van_der_corput(large // 2 + 1))
                graph = (nv, tuple(sorted(rng.sample(slots, m))))
                if graph in seen:
                    continue
                seen.add(graph)
                large += 1
            else:
                if not order:
                    order = _interleave(rng, small)[::-1]
                graph = order.pop()
            index += 1
            yield polyadj.Graph(graph[0], graph[1]), rng.getrandbits(32)

    def run(self, item):
        g, family_seed = item
        rng = random.Random(family_seed)
        vertices = polyadj.enumerate_vertices(polyadj.stable(g))
        classes = []
        for key, index_pairs in sorted(_sum_buckets(vertices).items()):
            if len(index_pairs) < 3:
                continue
            total = _decode(key, g.vertex_count)
            pairs = [(vertices[i], vertices[j]) for i, j in index_pairs]
            found = polyadj.pair_extension_oracle(g, total)
            # keep only the witness, as the sweep does, so peak memory is
            # the library's and not the benchmark's
            witnesses = []
            for subset in _odd_subsets(rng, len(pairs)):
                family = [pairs[i] for i in subset]
                witnesses.append((subset, polyadj.refute_face(g, family).witness))
            classes.append((total, pairs, found, witnesses))
        return vertices, classes

    def check(self, item, out):
        g, _ = item
        vertices, classes = out
        if vertices != oracle.stable_sets(g.vertex_count, g.edges):
            return "stable-set enumeration differs from brute force"
        for total, pairs, found, witnesses in classes:
            bucket = {frozenset(p) for p in pairs}
            if {frozenset(p) for p in found} != bucket:
                return f"pair oracle differs from the pair scan at sum {total}"
            for subset, w in witnesses:
                y, ybar = w.y_star, w.y_star_bar
                if not (oracle.is_stable(y, g.edges) and oracle.is_stable(ybar, g.edges)):
                    return f"witness is not a stable set at sum {total}"
                if tuple(a + b for a, b in zip(y, ybar)) != total:
                    return f"witness misses the sum {total}"
                new = frozenset((y, ybar))
                if new not in bucket or any(frozenset(pairs[i]) == new for i in subset):
                    return f"witness is not a new equal-sum pair at sum {total}"
        return None

    def text(self, item, out):
        g, _ = item
        vertices, classes = out
        lines = [f"{g.vertex_count} {g.edges} {len(vertices)}"]
        for total, _, found, witnesses in classes:
            lines.append(f"{total} {found}")
            for _, w in witnesses:
                lines.append(f"{w.t} {sorted(w.s_set)} {w.y_star} {w.y_star_bar}")
        return "\n".join(lines)


class CliMix(Workload):
    """One closed-loop client calling polyadj.cli.main in process, the
    six commands in turn (equal shares), each on freshly generated input
    files that no earlier item used, with --json output."""

    digest_items = 60
    rss_items = 300
    traced_calls = (
        "cli.main", "formats.parse_matrix", "formats.parse_graph",
        "reductions.verify_reduction", "enum.enumerate_vertices", "hull.are_adjacent",
        "hull.is_face", "simplex.feasible_point", "matsui.matsui_check",
        "witness.refute_face", "model.membership",
    )
    commands = ("enumerate", "adjacent", "matsui", "reduce", "refute-face", "face-check")

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.seen = set()
        # graphs on 2 to 4 vertices with an edge, and on 5 with 1 to 3
        # edges, classed by (vertices, edges)
        self.chain_classes = [[(2, ((0, 1),))]] + [
            [(nv, e) for e in combinations(combinations(range(nv), 2), k)]
            for nv, max_edges in ((3, 3), (4, 6), (5, 3))
            for k in range(1, max_edges + 1)
        ]
        self.chain_order = []

    def _fresh(self, text):
        if text in self.seen:
            return False
        self.seen.add(text)
        return True

    def items(self):
        makers = {
            "enumerate": self._enumerate, "adjacent": self._adjacent, "matsui": self._matsui,
            "reduce": self._reduce, "refute-face": self._refute, "face-check": self._face,
        }
        k = 0
        while True:
            for name in self.commands:
                for _ in range(1000):
                    item = makers[name](k)
                    if item is not None:
                        break
                else:
                    raise RuntimeError(f"no fresh {name} input after 1000 draws")
                yield item
            k += 1

    # Each maker gets its command's own item count k, returns (argv,
    # files, expectation) or None to redraw.  Sizes rotate with k rather
    # than being drawn, so every seed runs the same mix of input sizes.

    def _enumerate(self, k):
        rng = self.rng
        family = ("stable", "cover", "pack", "part", "dcp")[k % 5]
        r = (k // 5) % 3
        if family == "stable":
            nv = 10 + r
            edges = _random_edges(rng, nv, 0.35)
            text = _graph_text(nv, edges)
            expect = oracle.stable_sets(nv, edges)
        else:
            if family == "dcp":
                n = 8 + r
                rows = [rng.choice(_weight_rows(n, 4)) for _ in range(2 + r % 2)]
            else:
                n = (8 if family == "cover" else 10) + r
                rows = []
                while len(rows) < 4:
                    row = tuple(int(rng.random() < 0.35) for _ in range(n))
                    if any(row):
                        rows.append(row)
            text = _matrix_text(rows, n)
            expect = oracle.matrix_members(family, rows, n)
        if not self._fresh((family, text)):
            return None
        return ["enumerate", family, "{code}", "--json"], {"code": text}, expect

    def _adjacent(self, k):
        rng = self.rng
        r = (k // 2) % 2
        if k % 2 == 0:
            family = "stable"
            nv = 5 + r
            edges = _random_edges(rng, nv, 0.35)
            text = _graph_text(nv, edges)
            vertices = oracle.stable_sets(nv, edges)
        else:
            family = "dcp"
            rows = [rng.choice(_weight_rows(6 + r, 4)) for _ in range(2)]
            text = _matrix_text(rows, 6 + r)
            vertices = oracle.matrix_members("dcp", rows, 6 + r)
        if len(vertices) < 2 or not self._fresh((family, text)):
            return None
        u, v = rng.sample(vertices, 2)
        argv = ["adjacent", family, "{code}", _word(u), _word(v), "--json"]
        return argv, {"code": text}, (vertices, u, v)

    def _matsui(self, k):
        rows = [self.rng.choice(_weight_rows(5, 3)) for _ in range(4)]
        text = _matrix_text(rows, 5)
        if not self._fresh(("matrix", text)):
            return None
        return ["matsui", "{code}", "--json"], {"code": text}, oracle.partition_count(rows, 5)

    def _reduce(self, k):
        if not self.chain_order:
            self.chain_order = _interleave(self.rng, self.chain_classes)[::-1]
        nv, edges = self.chain_order.pop()
        argv = ["reduce", "chain", "{code}", "--verify", "--max-dim", "40", "--json"]
        return argv, {"code": _graph_text(nv, edges)}, (nv, len(edges))

    def _refute(self, k):
        rng = self.rng
        nv = 5 + k % 4
        edges = _random_edges(rng, nv, 0.35)
        text = _graph_text(nv, edges)
        pairs = _equal_sum_family(rng, oracle.stable_sets(nv, edges), 5 if k % 3 == 2 else 3)
        if pairs is None or not self._fresh(("stable", text)):
            return None
        pair_text = "".join(f"{_word(u)} {_word(v)}\n" for u, v in pairs)
        argv = ["refute-face", "{code}", "{pairs}", "--json"]
        return argv, {"code": text, "pairs": pair_text}, (edges, pairs)

    def _face(self, k):
        rng = self.rng
        nv = 5 + (k // 2) % 2
        edges = _random_edges(rng, nv, 0.4)
        vertices = oracle.stable_sets(nv, edges)
        if k % 2 == 0:
            # an odd equal-sum pair family is never a face's vertex set
            pairs = _equal_sum_family(rng, vertices, 3)
            if pairs is None:
                return None
            subset = [x for p in pairs for x in p]
            is_face = False
        else:
            # Chvatal: S, T adjacent iff G[S xor T] is connected
            s, t = rng.sample(vertices, 2)
            subset = [s, t]
            is_face = oracle.connected_difference(s, t, edges)
        text = _graph_text(nv, edges)
        if not self._fresh(("stable", text)):
            return None
        subset_text = "".join(_word(x) + "\n" for x in subset)
        argv = ["face-check", "stable", "{code}", "{subset}", "--json"]
        return argv, {"code": text, "subset": subset_text}, (vertices, subset, is_face)

    # ---- running and checking --------------------------------------------

    def prepare(self, item):
        _, files, _ = item
        for name, body in files.items():
            (self.workdir / name).write_text(body, encoding="ascii")

    def run(self, item):
        argv, files, _ = item
        argv = [a.format(**{k: str(self.workdir / k) for k in files}) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = polyadj.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def check(self, item, out):
        argv, _, expect = item
        code, stdout, _ = out
        if code != 0:
            return f"{argv[0]} exited {code}: {stdout.strip()}"
        doc = json.loads(stdout)
        return getattr(self, "_check_" + argv[0].replace("-", "_"))(argv, doc, expect)

    def _check_enumerate(self, argv, doc, expect):
        if doc["count"] != len(expect) or [oracle.bits(w) for w in doc["vertices"]] != expect:
            return f"{argv[1]} enumeration differs from brute force"
        return None

    def _check_adjacent(self, argv, doc, expect):
        vertices, u, v = expect
        cert = doc["certificate"]
        face = mid = seg = None
        if doc["adjacent"]:
            face = ([oracle.rat(c) for c in cert["normal"]], oracle.rat(cert["offset"]))
        support = [(int(i) - 1, oracle.rat(w)) for i, w in
                   (s.split(": ") for s in cert.get("support", []))]
        if "midpoint" in cert:
            mid = support
        elif "alpha" in cert:
            seg = (oracle.rat(cert["alpha"]), [oracle.rat(c) for c in cert["point"]], support)
        return oracle.check_adjacency(vertices, u, v, doc["adjacent"], face, mid, seg)

    def _check_matsui(self, argv, doc, k):
        if doc["part_count"] != k or doc["part_empty"] != (k == 0):
            return f"partition count {doc['part_count']}, brute force {k}"
        if doc["special_adjacent"] != (k == 0) or not doc["criterion_holds"]:
            return "special pair adjacency does not match partition emptiness"
        if doc["vertex_count"] != 2 + 4 * k:
            return "vertex count is not 2 + 4 * partition count"
        return None

    def _check_reduce(self, argv, doc, expect):
        nv, ne = expect
        n = nv + ne
        target = doc["target"]
        if (target["rows"], target["cols"]) != (2 * n + ne, 3 * n + 5):
            return "double-cover target has the wrong shape"
        if any(row.split().count("1") != 4 for row in doc["matrix"]):
            return "double-cover row without exactly four ones"
        if not all(stage["ok"] for stage in doc["verification"].values()):
            return "reduction verification failed"
        return None

    def _check_refute_face(self, argv, doc, expect):
        edges, pairs = expect
        y, ybar = oracle.bits(doc["y_star"]), oracle.bits(doc["y_star_bar"])
        if not (oracle.is_stable(y, edges) and oracle.is_stable(ybar, edges)):
            return "witness is not a stable set"
        total = tuple(a + b for a, b in zip(*pairs[0]))
        if tuple(a + b for a, b in zip(y, ybar)) != total:
            return "witness misses the common sum"
        if any({y, ybar} == set(p) for p in pairs):
            return "witness repeats an input pair"
        if not all(doc["checks"].values()):
            return "refutation self-checks failed"
        return None

    def _check_face_check(self, argv, doc, expect):
        vertices, subset, is_face = expect
        if doc["face"] != is_face:
            return f"face verdict {doc['face']}, expected {is_face}"
        if is_face:
            cert = doc["certificate"]
            normal = [oracle.rat(c) for c in cert["normal"]]
            return oracle.check_face(normal, oracle.rat(cert["offset"]), subset, vertices)
        return None

    def text(self, item, out):
        argv, files, _ = item
        code, stdout, stderr = out
        return " ".join(argv) + "\n" + "".join(files.values()) + f"{code}\n{stdout}{stderr}"


WORKLOADS = {
    "matsui-criterion": MatsuiCriterion,
    "random-adjacency": RandomAdjacency,
    "pair-witness": PairWitness,
    "cli-mix": CliMix,
}
