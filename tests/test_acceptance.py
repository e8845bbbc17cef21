"""Acceptance suite: one test per headline property, full workload.

Each test prints a single PASS/FAIL line so the suite doubles as a
checklist when run with ``pytest -v -s tests/test_acceptance.py``.
Everything here is exact arithmetic; expect a few minutes end to end.
"""

from fractions import Fraction
from itertools import combinations

from polyadj import (
    BinaryMatrix,
    are_adjacent,
    dcp,
    enumerate_vertices,
    verify_face_certificate,
    verify_hull_certificate,
    HullCertificate,
)
from polyadj.cli import main
from polyadj.sweeps import (
    run_adjacency_crosscheck,
    run_chain_sweep,
    run_face_corollary_sweep,
    run_family_midpoint_sweep,
    run_hull_crosscheck,
    run_matsui_sweep,
    run_pair_extension_sweep,
)


def report(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_matsui_equivalence_sweep():
    result = run_matsui_sweep()
    ok = (
        result.instances >= 500
        and result.all_hold
        and result.part_empty_instances > 0
    )
    report(
        "matsui-equivalence",
        ok,
        f"{result.instances} instances "
        f"({result.part_empty_instances} with empty partition system), "
        f"{len(result.failures)} failures",
    )


def test_criterion_2_reduction_chain():
    result = run_chain_sweep()
    ok = result.graphs == 71 and result.all_hold
    report(
        "reduction-chain",
        ok,
        f"{result.graphs} graphs, {result.checks} stage verifications, "
        f"{len(result.failures)} failures",
    )


def test_criterion_3_hull_and_adjacency_oracles():
    hull = run_hull_crosscheck()
    segment = run_adjacency_crosscheck()
    midpoint = run_family_midpoint_sweep()
    ok = (
        hull.queries >= 1000
        and 0 < hull.inside_answers < hull.queries
        and hull.all_hold
        and segment.vertex_sets >= 100
        and segment.all_hold
        and midpoint.vertex_sets >= 100
        and midpoint.all_hold
    )
    report(
        "hull-oracle-crosscheck",
        ok,
        f"{hull.queries} membership queries, "
        f"{segment.vertex_sets} random sets / {segment.pairs} pairs vs segment rule, "
        f"{midpoint.vertex_sets} family sets / {midpoint.pairs} pairs vs midpoint rule, "
        f"{sum(len(r.disagreements) for r in (hull, segment, midpoint))} disagreements",
    )


def test_criterion_4_pair_extension_property():
    result = run_pair_extension_sweep()
    ok = result.graphs == 33866 + 10000 and result.all_hold
    report(
        "pair-extension-witness",
        ok,
        f"{result.graphs} graphs, {result.buckets} equal-sum classes, "
        f"{result.families} odd families refuted, {len(result.failures)} failures",
    )


def test_criterion_5_no_odd_pair_face():
    result = run_face_corollary_sweep()
    ok = result.all_hold
    report(
        "odd-pair-face-corollary",
        ok,
        f"{result.graphs} graphs, {result.subsets} odd pair subsets, "
        f"{len(result.counterexamples)} counterexamples",
    )


def test_criterion_6_octahedron_structure():
    verts = enumerate_vertices(dcp(BinaryMatrix.from_rows([[1, 1, 1, 1]])))
    ok = len(verts) == 6
    adjacent_pairs = 0
    non_adjacent_pairs = 0
    for u, v in combinations(verts, 2):
        verdict = are_adjacent(verts, u, v)
        complementary = all(a + b == 1 for a, b in zip(u, v))
        if verdict.adjacent != (not complementary):
            ok = False
        if verdict.adjacent:
            adjacent_pairs += 1
            verify_face_certificate([u, v], verts, verdict.face_certificate)
        else:
            non_adjacent_pairs += 1
            midpoint = tuple(Fraction(a + b, 2) for a, b in zip(u, v))
            rest = [x for x in verts if x != u and x != v]
            support = tuple(
                (rest.index(verts[i]), w)
                for i, w in verdict.midpoint_certificate.support
            )
            verify_hull_certificate(midpoint, rest, HullCertificate(support))
    ok = ok and adjacent_pairs == 12 and non_adjacent_pairs == 3
    report(
        "octahedron-golden",
        ok,
        f"{len(verts)} vertices, {adjacent_pairs} adjacent pairs, "
        f"{non_adjacent_pairs} complementary non-adjacent pairs, "
        "all certificates verified",
    )


def test_criterion_7_cube_witness_regression(tmp_path, capsys):
    graph = tmp_path / "free3.graph"
    graph.write_text("p 3 0\n")
    pairs = tmp_path / "cube.pairs"
    pairs.write_text("000 111\n110 001\n101 010\n")
    rc = main(["refute-face", str(graph), str(pairs)])
    out = capsys.readouterr().out
    expected = (
        "status: ok\n"
        "pair_count: 3\n"
        "t: 2\n"
        "S:\n"
        "  - 1\n"
        "y_star: 100\n"
        "y_star_bar: 011\n"
        "midpoint:\n"
        "  - 1/2\n"
        "  - 1/2\n"
        "  - 1/2\n"
        "checks:\n"
        "  in_polytope: true\n"
        "  sum_matches: true\n"
        "  distinct_from_inputs: true\n"
    )
    ok = rc == 0 and out == expected
    with capsys.disabled():
        report(
            "cube-witness-regression",
            ok,
            "t=2, S={1}, y*=100, byte-exact CLI document",
        )
