"""Small-scale runs of the batch sweep drivers.

The acceptance suite runs these at full size; here each driver gets a
reduced workload so regressions surface quickly.
"""

from itertools import combinations

from polyadj import sweeps
from polyadj.generators import three_ones_matrices
from polyadj.hull import enumerate_vertices
from polyadj.matsui import special_vertices
from polyadj.model import BinaryMatrix, Graph, dcp, npadj, stable
from polyadj.sweeps import (
    family_vertex_sets,
    matsui_instance_family,
    run_adjacency_crosscheck,
    run_chain_sweep,
    run_face_corollary_sweep,
    run_family_midpoint_sweep,
    run_hull_crosscheck,
    run_matsui_sweep,
    run_pair_extension_sweep,
)


def test_instance_family_is_deduplicated_and_large():
    fam = matsui_instance_family()
    assert len(fam) == len(set(fam))
    assert len(fam) == 1073
    assert all(all(sum(row) == 3 for row in a.rows) for a in fam)


def test_matsui_sweep_on_width_three():
    matrices = list(three_ones_matrices(3, 1)) + list(three_ones_matrices(3, 2))
    report = run_matsui_sweep(matrices)
    assert report.instances == len(matrices)
    assert report.all_hold
    assert not report.failures
    # width three leaves no room for a second disjoint triple, so only
    # the single-row instances can have a partition
    assert report.part_empty_instances == 0


def test_chain_sweep_small():
    # only graphs with at least one edge admit the covering reduction
    report = run_chain_sweep((2, 3))
    assert report.graphs == 1 + 7
    assert report.checks > 0
    assert report.all_hold


def test_hull_crosscheck_small():
    report = run_hull_crosscheck(60, seed=7, max_dim=3, max_vertices=6)
    assert report.queries == 60
    assert report.disagreements == 0
    assert 0 < report.inside_answers < 60
    assert report.all_hold


def test_adjacency_crosscheck_small():
    report = run_adjacency_crosscheck(10, seed=11)
    assert report.vertex_sets == 10
    assert report.pairs > 0
    assert report.all_hold


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
    path = enumerate_vertices(stable(Graph.from_edges(3, [(0, 1), (1, 2)])))
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


def test_pair_extension_sweep_tiny():
    report = run_pair_extension_sweep(
        4, sampled_sizes=(), samples_per_size=0, triple_budget=4
    )
    assert report.graphs == 2 + 8 + 64
    assert report.buckets > 0
    assert report.families > 0
    assert report.all_hold


def test_face_corollary_sweep_tiny():
    report = run_face_corollary_sweep((2, 3))
    assert report.graphs == 10
    assert report.subsets > 0
    assert report.all_hold


def test_entry_point_runs_one_sweep(capsys):
    assert sweeps.main(["chain"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == ["chain.graphs: 71", "chain.checks: 284", "chain.failures: 0"]


def test_entry_point_exits_one_on_failure(monkeypatch, capsys):
    failed = sweeps.ChainSweepResult(graphs=1, checks=4, failures=["npadj-dcp failed on G"])
    monkeypatch.setitem(sweeps._SWEEPS, "chain", lambda tick: {"chain": failed})
    assert sweeps.main(["chain"]) == 1
    assert "chain.failures: 1\n  npadj-dcp failed on G\n" in capsys.readouterr().out
