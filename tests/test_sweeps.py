"""Small-scale runs of the batch sweep drivers.

The acceptance suite runs these at full size; here each driver gets a
reduced workload so regressions surface quickly.
"""

from polyadj import sweeps
from polyadj.generators import three_ones_matrices
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
    assert report.all_agree


def test_adjacency_crosscheck_small():
    report = run_adjacency_crosscheck(10, seed=11)
    assert report.vertex_sets == 10
    assert report.pairs > 0
    assert report.all_agree


def test_family_vertex_sets_cover_every_family():
    labels = [label for label, _ in family_vertex_sets()]
    assert len(labels) >= 100
    for prefix in ("stable", "dcp", "npadj"):
        assert any(label.startswith(prefix) for label in labels)


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
