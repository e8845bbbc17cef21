"""End-to-end tests for the command-line interface.

Each test drives ``polyadj.cli.main`` in process and checks the exact
rendered payload, since downstream tooling scrapes this output.
"""

import dataclasses
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import polyadj
from polyadj import cli, hull
from polyadj.cli import main
from polyadj.reductions import ReductionReport

SINGLE_ROW = "1 3\n1 1 1\n"
OCTA = "1 4\n1 1 1 1\n"
INFEASIBLE_44 = "4 4\n1 1 1 0\n1 1 0 1\n1 0 1 1\n0 1 1 1\n"
EDGE3 = "p 3 1\ne 1 2\n"
FREE3 = "p 3 0\n"
CUBE_PAIRS = "000 111\n110 001\n101 010\n"

CUBE_REFUTATION = """\
status: ok
pair_count: 3
t: 2
S:
  - 1
y_star: 100
y_star_bar: 011
midpoint:
  - 1/2
  - 1/2
  - 1/2
checks:
  in_polytope: true
  sum_matches: true
  distinct_from_inputs: true
"""


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out


@pytest.fixture
def workdir(tmp_path):
    files = {
        "single.mat": SINGLE_ROW,
        "octa.mat": OCTA,
        "inf44.mat": INFEASIBLE_44,
        "edge3.graph": EDGE3,
        "free3.graph": FREE3,
        "cube.pairs": CUBE_PAIRS,
    }
    for name, body in files.items():
        (tmp_path / name).write_text(body)
    return tmp_path


def test_refute_face_cube_document(workdir, capsys):
    rc, out = run(
        capsys,
        "refute-face",
        str(workdir / "free3.graph"),
        str(workdir / "cube.pairs"),
    )
    assert rc == 0
    assert out == CUBE_REFUTATION


def test_refute_face_failed_check_exits_one(workdir, capsys, monkeypatch):
    # a witness repeating an input pair fails distinct_from_inputs
    real = cli.refute_face

    def repeating(graph, pairs):
        refutation = real(graph, pairs)
        y, ybar = pairs[0]
        witness = dataclasses.replace(refutation.witness, y_star=y, y_star_bar=ybar)
        return dataclasses.replace(refutation, witness=witness)

    monkeypatch.setattr("polyadj.cli.refute_face", repeating)
    rc, out = run(capsys, "refute-face", str(workdir / "free3.graph"), str(workdir / "cube.pairs"))
    assert rc == 1
    assert out.startswith("status: property-failed\n")
    assert "  distinct_from_inputs: false\n" in out


def test_refute_face_is_deterministic(workdir, capsys):
    args = ("refute-face", str(workdir / "free3.graph"), str(workdir / "cube.pairs"))
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert first == second


def test_enumerate_octahedron(workdir, capsys):
    rc, out = run(capsys, "enumerate", "dcp", str(workdir / "octa.mat"))
    assert rc == 0
    assert out == (
        "status: ok\n"
        "family: dcp\n"
        "dimension: 4\n"
        "count: 6\n"
        "vertices:\n"
        "  - 0011\n"
        "  - 0101\n"
        "  - 0110\n"
        "  - 1001\n"
        "  - 1010\n"
        "  - 1100\n"
    )


def test_enumerate_count_only(workdir, capsys):
    rc, out = run(
        capsys, "enumerate", "npadj", str(workdir / "single.mat"), "--count-only"
    )
    assert rc == 0
    assert out == "status: ok\nfamily: npadj\ndimension: 12\ncount: 14\n"


def test_enumerate_stable_from_graph(workdir, capsys):
    rc, out = run(capsys, "enumerate", "stable", str(workdir / "edge3.graph"))
    assert rc == 0
    assert "count: 6" in out
    assert "  - 011\n" in out
    assert "  - 110\n" not in out


def test_adjacent_non_adjacent_pair(workdir, capsys):
    rc, out = run(capsys, "adjacent", "dcp", str(workdir / "octa.mat"), "0011", "1100")
    assert rc == 0
    assert out == (
        "status: ok\n"
        "family: dcp\n"
        "u: 0011\n"
        "v: 1100\n"
        "adjacent: false\n"
        "certificate:\n"
        "  midpoint:\n"
        "    - 1/2\n"
        "    - 1/2\n"
        "    - 1/2\n"
        "    - 1/2\n"
        "  support:\n"
        "    - 3: 1/2\n"
        "    - 4: 1/2\n"
    )


# No midpoint symmetry: 000 and 111 are not adjacent, and only the
# segment certificate shows it (see test_hull).
SEGMENT_VERTICES = [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)]

SEGMENT_DOCUMENT = """\
status: ok
family: pack
u: 000
v: 111
adjacent: false
certificate:
  alpha: 2/3
  point:
    - 1/3
    - 1/3
    - 1/3
  support:
    - 2: 1/3
    - 3: 1/3
    - 4: 1/3
"""


def test_adjacent_segment_certificate_document(workdir, capsys, monkeypatch):
    def segment_only(vertices, u, v):
        return hull.are_adjacent(SEGMENT_VERTICES, u, v)

    monkeypatch.setattr("polyadj.cli.are_adjacent", segment_only)
    args = ("adjacent", "pack", str(workdir / "single.mat"), "000", "111")
    rc, out = run(capsys, *args)
    assert rc == 0
    assert out == SEGMENT_DOCUMENT
    rc, out = run(capsys, *args, "--json")
    assert rc == 0
    assert out == json.dumps(
        {
            "status": "ok",
            "family": "pack",
            "u": "000",
            "v": "111",
            "adjacent": False,
            "certificate": {
                "alpha": "2/3",
                "point": ["1/3", "1/3", "1/3"],
                "support": ["2: 1/3", "3: 1/3", "4: 1/3"],
            },
        },
        indent=2,
    ) + "\n"


def test_adjacent_pair_with_face_certificate(workdir, capsys):
    rc, out = run(capsys, "adjacent", "dcp", str(workdir / "octa.mat"), "0011", "0101")
    assert rc == 0
    assert "adjacent: true" in out
    assert "normal:" in out
    assert "offset: 1/1" in out


def test_adjacent_special_vertices_of_infeasible_instance(workdir, capsys):
    rc, out = run(
        capsys,
        "adjacent",
        "npadj",
        str(workdir / "inf44.mat"),
        "000000011111111",
        "111111100000000",
    )
    assert rc == 0
    assert "adjacent: true" in out


def test_matsui_text_and_json(workdir, capsys):
    rc, out = run(capsys, "matsui", str(workdir / "single.mat"))
    assert rc == 0
    assert out == (
        "status: ok\n"
        "part_empty: false\n"
        "special_adjacent: false\n"
        "criterion_holds: true\n"
        "part_count: 3\n"
        "vertex_count: 14\n"
    )
    rc, out = run(capsys, "matsui", str(workdir / "single.mat"), "--json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["criterion_holds"] is True
    assert payload["vertex_count"] == 14


def test_reduce_stable_part(workdir, capsys):
    rc, out = run(capsys, "reduce", "stable-part", str(workdir / "edge3.graph"))
    assert rc == 0
    assert "matrix:\n  - 1 1 0 1\n" in out
    assert "target:\n  family: part\n  dimension: 4\n" in out


def test_reduce_out_round_trips(workdir, capsys):
    out_path = workdir / "edge3.part"
    rc, _ = run(
        capsys,
        "reduce",
        "stable-part",
        str(workdir / "edge3.graph"),
        "--out",
        str(out_path),
    )
    assert rc == 0
    assert out_path.read_text() == "1 4\n1 1 0 1\n"
    rc, out = run(capsys, "enumerate", "part", str(out_path), "--count-only")
    assert rc == 0
    assert "count: 6" in out


def test_reduce_chain_verified(workdir, capsys):
    rc, out = run(capsys, "reduce", "chain", str(workdir / "edge3.graph"), "--verify")
    assert rc == 0
    assert "stages:" in out
    assert "source_dim: 3" in out
    assert "target_dim: 17" in out
    assert "  rows: 9\n  cols: 17\n" in out
    assert out.count("ok: true") == 4
    assert "face_fixes:\n  - 1=0\n  - 2=1\n  - 3=0\n  - 4=1\n  - 5=1\n" in out


NPADJ_DCP_VERIFIED = """\
status: ok
kind: npadj-dcp
source:
  family: npadj
  dimension: 12
target:
  family: dcp
  dimension: 14
  rows: 7
  cols: 14
matrix:
  - 1 1 0 0 0 1 0 0 1 0 0 0 0 0
  - 0 0 1 1 0 0 0 0 1 0 0 1 0 0
  - 1 1 0 0 0 0 1 0 0 1 0 0 0 0
  - 0 0 1 1 0 0 0 0 0 1 0 0 1 0
  - 1 1 0 0 0 0 0 1 0 0 1 0 0 0
  - 0 0 1 1 0 0 0 0 0 0 1 0 0 1
  - 0 0 0 0 1 1 0 0 0 0 0 0 1 1
map:
  rows:
    - 0 0 0 0 0 0 0 0 0 0 0 0
    - 0 0 0 0 0 0 0 0 0 0 0 0
    - 1 0 0 0 0 0 0 0 0 0 0 0
    - 0 1 0 0 0 0 0 0 0 0 0 0
    - 0 0 1 0 0 0 0 0 0 0 0 0
    - 0 0 0 1 0 0 0 0 0 0 0 0
    - 0 0 0 0 1 0 0 0 0 0 0 0
    - 0 0 0 0 0 1 0 0 0 0 0 0
    - 0 0 0 0 0 0 1 0 0 0 0 0
    - 0 0 0 0 0 0 0 1 0 0 0 0
    - 0 0 0 0 0 0 0 0 1 0 0 0
    - 0 0 0 0 0 0 0 0 0 1 0 0
    - 0 0 0 0 0 0 0 0 0 0 1 0
    - 0 0 0 0 0 0 0 0 0 0 0 1
  offset: 0 1 0 0 0 0 0 0 0 0 0 0 0 0
face_fixes:
  - 1=0
  - 2=1
verification:
  image_equals_face_slice: true
  injective: true
  face_is_supported: true
  ok: true
"""


def test_reduce_single_stage_verified_document(workdir, capsys):
    rc, out = run(capsys, "reduce", "npadj-dcp", str(workdir / "single.mat"), "--verify")
    assert rc == 0
    assert out == NPADJ_DCP_VERIFIED


@pytest.mark.parametrize(
    "kind, name, checks",
    [("npadj-dcp", "single.mat", 1), ("chain", "edge3.graph", 4)],
)
def test_reduce_failed_verification_exits_one(workdir, capsys, monkeypatch, kind, name, checks):
    failed = ReductionReport(False, True, True)
    monkeypatch.setattr("polyadj.cli.verify_reduction", lambda art, max_dim: failed)
    rc, out = run(capsys, "reduce", kind, str(workdir / name), "--verify")
    assert rc == 1
    assert out.startswith("status: property-failed\n")
    assert out.count("image_equals_face_slice: false") == out.count("ok: false") == checks


def test_face_check_true_and_false(workdir, capsys):
    subset = workdir / "subset.verts"
    subset.write_text("0011\n0101\n")
    rc, out = run(
        capsys, "face-check", "dcp", str(workdir / "octa.mat"), str(subset)
    )
    assert rc == 0
    assert "face: true" in out
    assert "certificate:" in out
    subset.write_text("0011\n1100\n")
    rc, out = run(
        capsys, "face-check", "dcp", str(workdir / "octa.mat"), str(subset)
    )
    assert rc == 0
    assert out.endswith("face: false\n")


def test_face_check_repeated_vertex_is_input_error(workdir, capsys):
    subset = workdir / "twice.verts"
    subset.write_text("0011\n0011\n")
    rc, out = run(capsys, "face-check", "dcp", str(workdir / "octa.mat"), str(subset))
    assert rc == 2
    assert out == "status: input-error\nerror: face subset contains duplicates\n"


def test_certificate_that_fails_its_recheck_is_a_defect(workdir, capsys, monkeypatch):
    # a wrong LP answer must surface as a defect (exit 1), not as bad input
    def wrong_point(matrix, rhs):
        return [Fraction(0)] * len(matrix[0])

    monkeypatch.setattr("polyadj.hull.simplex.feasible_point", wrong_point)
    rc, out = run(capsys, "adjacent", "dcp", str(workdir / "octa.mat"), "0011", "1100")
    assert rc == 1
    assert out.startswith("status: property-failed\nerror: certificate does not verify: ")


def test_refute_face_input_errors(workdir, capsys):
    bad = workdir / "bad.pairs"
    bad.write_text("000 111\n110 000\n101 010\n")
    rc, out = run(capsys, "refute-face", str(workdir / "free3.graph"), str(bad))
    assert rc == 2
    assert out.startswith("status: input-error\n")
    assert "different coordinate sum" in out

    two = workdir / "two.pairs"
    two.write_text("000 111\n110 001\n")
    rc, out = run(capsys, "refute-face", str(workdir / "free3.graph"), str(two))
    assert rc == 2
    assert "at least three pairs" in out


def test_refute_face_unrefuted_even_family_is_input_error(workdir, capsys):
    # the theorem covers odd families; the 3-cube's four complementary
    # pairs are even and leave no new pair, so the input is at fault
    whole = workdir / "whole.pairs"
    whole.write_text("000 111\n001 110\n010 101\n011 100\n")
    rc, out = run(capsys, "refute-face", str(workdir / "free3.graph"), str(whole))
    assert rc == 2
    assert out == (
        "status: input-error\n"
        "error: every candidate collides; the excluded even-family pair blocks the search\n"
    )


def test_enumerate_matrix_without_columns_is_input_error(workdir, capsys):
    empty = workdir / "zero.mat"
    empty.write_text("0 0\n")
    rc, out = run(capsys, "enumerate", "cover", str(empty))
    assert rc == 2
    assert out == "status: input-error\nerror: matrix needs at least one column\n"


def test_reduce_rejects_wrong_row_weight(workdir, capsys):
    bad = workdir / "w2.mat"
    bad.write_text("1 3\n1 1 0\n")
    rc, out = run(capsys, "reduce", "part-npadj", str(bad))
    assert rc == 2
    assert "exactly three ones" in out


def test_enumerate_deep_path_partition(workdir, capsys):
    n = 1100
    path = workdir / "chain.mat"
    rows = (" ".join("1" if j in (i, i + 1) else "0" for j in range(n)) for i in range(n - 1))
    path.write_text(f"{n - 1} {n}\n" + "\n".join(rows) + "\n")
    rc, out = run(capsys, "enumerate", "part", str(path), "--max-dim", "2000", "--count-only")
    assert rc == 0
    assert out == f"status: ok\nfamily: part\ndimension: {n}\ncount: 2\n"


def test_missing_file_is_input_error(workdir, capsys):
    rc, out = run(capsys, "enumerate", "part", str(workdir / "nope.mat"))
    assert rc == 2
    assert out.startswith("status: input-error\n")


def test_non_ascii_file_is_input_error(workdir, capsys):
    bad = workdir / "bytes.graph"
    bad.write_bytes(b"p 3 1\ne 1 2\xff\n")
    rc, out = run(capsys, "enumerate", "stable", str(bad))
    assert rc == 2
    assert out.startswith("status: input-error\n")
    assert "not ASCII" in out


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_bad_edge_is_input_error_naming_the_line(workdir, capsys):
    bad = workdir / "dup.graph"
    bad.write_text("p 3 2\ne 1 2\ne 2 1\n")
    rc, out = run(capsys, "enumerate", "stable", str(bad))
    assert rc == 2
    assert out == "status: input-error\nerror: bad edge line 'e 2 1': duplicate edge (0, 1)\n"


# ---- one parser per process ---------------------------------------------------

_SRC = str(Path(polyadj.__file__).resolve().parents[1])


def _fresh_process(*argv):
    """Exit code and stdout of ``python -m polyadj.cli`` in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=_SRC)
    done = subprocess.run(
        [sys.executable, "-m", "polyadj.cli", *argv], env=env, capture_output=True, text=True
    )
    return done.returncode, done.stdout


def test_repeated_commands_in_one_process_match_fresh_processes(workdir, capsys):
    commands = [
        ("enumerate", "dcp", str(workdir / "octa.mat")),
        ("refute-face", str(workdir / "free3.graph"), str(workdir / "cube.pairs")),
        ("adjacent", "dcp", str(workdir / "octa.mat"), "0011", "1100"),
        ("enumerate", "stable", str(workdir / "edge3.graph")),
    ]
    in_process = [run(capsys, *argv, *flag) for argv in commands for flag in ((), ("--json",))]
    fresh = [_fresh_process(*argv, *flag) for argv in commands for flag in ((), ("--json",))]
    assert in_process == fresh
    assert cli._build_parser.cache_info().misses == 1


@pytest.mark.parametrize(
    "argv",
    [("frobnicate",), ("enumerate", "dcp", "octa.mat", "--max-dim", "abc")],
    ids=["unknown-command", "max-dim-not-an-int"],
)
def test_parser_error_leaves_the_parser_usable(workdir, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    capsys.readouterr()
    rc, out = run(capsys, "enumerate", "dcp", str(workdir / "octa.mat"), "--count-only")
    assert rc == 0
    assert out == "status: ok\nfamily: dcp\ndimension: 4\ncount: 6\n"


_BUILDS_AFTER_IMPORT = """
import contextlib, io
import polyadj.cli as cli
print(cli._build_parser.cache_info().currsize)
with contextlib.redirect_stdout(io.StringIO()):
    for _ in range(3):
        cli.main(["enumerate", "dcp", "octa.mat", "--count-only"])
print(cli._build_parser.cache_info().misses)
"""


def test_import_leaves_the_parser_unbuilt(workdir):
    # set-up pays for the import only; the first main call builds the
    # parser and later calls reuse it
    env = dict(os.environ, PYTHONPATH=_SRC)
    out = subprocess.run(
        [sys.executable, "-c", _BUILDS_AFTER_IMPORT],
        cwd=workdir, env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert out == "0\n1\n"
