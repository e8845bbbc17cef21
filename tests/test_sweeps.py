"""The parts of the sweeps: the instance family, the oracles the
adjacency sweeps check against, the equal-sum class walk and the
command line.  The acceptance suite runs the sweeps themselves.
"""

from itertools import combinations

from polyadj import sweeps
from polyadj.generators import all_graphs, infeasible_four_by_four
from polyadj.hull import enumerate_vertices, vertex_words
from polyadj.matsui import special_vertices
from polyadj.model import BinaryMatrix, Graph, bits_from_int, dcp, npadj, stable
from polyadj.sweeps import family_vertex_sets, matsui_instance_family

README_SET = [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)]


def test_instance_family_is_deduplicated_and_large():
    fam = matsui_instance_family()
    assert len(fam) == len(set(fam))
    assert len(fam) == 1073
    assert infeasible_four_by_four() in fam
    assert all(all(sum(row) == 3 for row in a.rows) for a in fam)


def test_family_vertex_sets_cover_every_family():
    sets = family_vertex_sets()
    assert len(sets) >= 100
    rules = [make_rule for _, make_rule in sets]
    assert set(rules) == {sweeps._chvatal_rule, sweeps._product_rule, sweeps._bruteforce_midpoint_rule}
    # the single-row codes of width 4 to 6 and 3 to 4, after the graphs
    assert rules.count(sweeps._product_rule) == 1 + 5 + 15
    assert rules.count(sweeps._bruteforce_midpoint_rule) == 1 + 4


def test_family_rules_on_known_polytopes():
    # STAB of the edgeless graph is the cube: edges change one coordinate
    cube = enumerate_vertices(stable(Graph(3, ())))
    chvatal = sweeps._chvatal_rule(cube)
    for u, v in combinations(cube, 2):
        assert chvatal(u, v) == (sum(a != b for a, b in zip(u, v)) == 1)
    # on the path 0-1-2, {0} xor {2} is not connected, {0, 2} xor {1} is
    path = enumerate_vertices(stable(Graph(3, [(0, 1), (1, 2)])))
    chvatal = sweeps._chvatal_rule(path)
    assert not chvatal((1, 0, 0), (0, 0, 1))
    assert chvatal((1, 0, 1), (0, 1, 0))
    # an octahedron on coordinates 0, 1, 3, 4 times a segment on 2
    prism = enumerate_vertices(dcp(BinaryMatrix.from_rows([[1, 1, 0, 1, 1]])))
    product = sweeps._product_rule(prism)
    assert product((1, 1, 0, 0, 0), (1, 1, 1, 0, 0))
    assert product((1, 1, 0, 0, 0), (1, 0, 0, 1, 0))
    assert not product((1, 1, 0, 0, 0), (0, 0, 0, 1, 1))
    assert not product((1, 1, 0, 0, 0), (1, 0, 1, 1, 0))
    a = BinaryMatrix.from_rows([[1, 1, 1]])
    midpoint = sweeps._bruteforce_midpoint_rule(enumerate_vertices(npadj(a)))
    assert not midpoint(*special_vertices(a))


def test_segment_rule_on_the_readme_set():
    # 000 and 111 are the one non-adjacent pair, and their midpoint
    # misses the hull of the other three
    segment = sweeps._segment_rule(README_SET)
    for u, v in combinations(README_SET, 2):
        assert segment(u, v) == ({u, v} != {(0, 0, 0), (1, 1, 1)})
    assert sweeps._segment_rule([(0, 1), (1, 0)])((0, 1), (1, 0))


def test_crosscheck_names_each_disagreement():
    def always_adjacent(vertices):
        return lambda u, v: True

    result = sweeps._crosscheck([(README_SET, always_adjacent)], "sets", None)
    assert (result.vertex_sets, result.pairs) == (1, 10)
    assert result.disagreements == [
        "pair 000 111 of {000 001 010 100 111}: are_adjacent False, always_adjacent True"
    ]
    assert not result.all_hold
    assert sweeps._crosscheck([(README_SET, sweeps._segment_rule)], "sets", None).all_hold


def test_hull_crosscheck_names_each_disagreement(monkeypatch):
    monkeypatch.setattr(sweeps, "in_convex_hull_bruteforce", lambda point, vertices: None)
    result = sweeps.run_hull_crosscheck()
    assert len(result.disagreements) == result.inside_answers == 563
    assert not result.all_hold
    assert all(entry.startswith("point (") for entry in result.disagreements)
    assert all(entry.endswith(": inside by LP True, by support search False") for entry in result.disagreements)


def test_equal_sum_classes_match_a_tuple_scan():
    for g in all_graphs(4):
        words = vertex_words(stable(g))
        vertices = [bits_from_int(w, 4) for w in words]
        scan: dict[tuple[int, ...], list[tuple[int, int]]] = {}
        for i, j in combinations(range(len(vertices)), 2):
            total = tuple(a + b for a, b in zip(vertices[i], vertices[j]))
            scan.setdefault(total, []).append((i, j))
        # the packing puts coordinate 0 lowest, so sums sort reversed
        expected = sorted((t[::-1], t, p) for t, p in scan.items() if len(p) >= 3)
        assert list(sweeps._equal_sum_classes(words, 4)) == [(t, p) for _, t, p in expected]


def test_entry_point_runs_one_sweep(capsys):
    assert sweeps.main(["chain"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == ["chain.graphs: 71", "chain.checks: 284", "chain.failures: 0"]


def test_entry_point_exits_one_on_failure(monkeypatch, capsys):
    failed = sweeps.ChainSweepResult(graphs=1, checks=4, failures=["npadj-dcp failed on G"])
    monkeypatch.setitem(sweeps._SWEEPS, "chain", {"chain": lambda progress: failed})
    assert sweeps.main(["chain"]) == 1
    assert "chain.failures: 1\n  npadj-dcp failed on G\n" in capsys.readouterr().out
