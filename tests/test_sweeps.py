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


def test_instance_family_is_deduplicated_and_large():
    fam = matsui_instance_family()
    assert len(fam) == len(set(fam))
    assert len(fam) == 1073
    assert infeasible_four_by_four() in fam
    assert all(all(sum(row) == 3 for row in a.rows) for a in fam)


def test_family_vertex_sets_cover_every_family():
    labels = [label for label, _ in family_vertex_sets()]
    assert len(labels) >= 100
    for prefix in ("stable", "dcp", "npadj"):
        assert any(label.startswith(prefix) for label in labels)


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
