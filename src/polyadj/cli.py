"""Command-line interface.

Payloads are deterministic: the same input files and flags produce
byte-identical output.  The default rendering is an indented key/value
document; ``--json`` switches to JSON with the same structure.  Indices
on the wire (vertex positions, witness coordinates, face fixes) are
1-based to match the file formats; the Python API stays 0-based.

Exit codes: 0 ok, 1 property-failed, 2 input-error.  The parser is built
on the first ``main`` call and reused, so in-process callers may call
``main`` repeatedly.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Sequence

from .errors import Defect, FormatError, PolytopeError
from .formats import (
    format_matrix,
    format_vertex,
    parse_graph,
    parse_matrix,
    parse_pairs,
    parse_vertex,
    parse_vertex_list,
    rat_str,
)
from .hull import FaceCertificate, are_adjacent, enumerate_vertices, is_face
from .matsui import matsui_check
from .model import (
    DEFAULT_ENUMERATION_CAP,
    FAMILIES,
    PolytopeCode,
    dimension,
    membership,
    stable,
)
from .reductions import STAGE_BUILDERS, ReductionArtifact, reduction_chain, verify_reduction
from .witness import refute_face

_EXIT = {"ok": 0, "property-failed": 1, "input-error": 2}


@dataclass
class CommandResult:
    status: str
    payload: dict[str, Any]


# ---- output rendering -------------------------------------------------------


def _scalar(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _render_lines(value: dict[str, Any] | list[Any], indent: str) -> list[str]:
    lines: list[str] = []
    if isinstance(value, dict):
        for key, item in value.items():
            if isinstance(item, (dict, list)):
                lines.append(f"{indent}{key}:")
                lines.extend(_render_lines(item, indent + "  "))
            else:
                lines.append(f"{indent}{key}: {_scalar(item)}")
    else:
        for item in value:
            if isinstance(item, (dict, list)):
                lines.append(f"{indent}-")
                lines.extend(_render_lines(item, indent + "  "))
            else:
                lines.append(f"{indent}- {_scalar(item)}")
    return lines


def _emit(result: CommandResult, as_json: bool) -> None:
    document = {"status": result.status, **result.payload}
    if as_json:
        sys.stdout.write(json.dumps(document, indent=2) + "\n")
    else:
        sys.stdout.write("\n".join(_render_lines(document, "")) + "\n")


# ---- shared plumbing --------------------------------------------------------


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="ascii")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not ASCII text ({exc.reason} at byte {exc.start})") from exc


def _load_code(family: str, path: str) -> PolytopeCode:
    parse = parse_graph if family == "stable" else parse_matrix
    return PolytopeCode(family, parse(_read_text(path)))


def _support(support: tuple[tuple[int, Fraction], ...]) -> list[str]:
    return [f"{i + 1}: {rat_str(w)}" for i, w in support]


def _face_payload(cert: FaceCertificate) -> dict[str, Any]:
    return {
        "normal": [rat_str(a) for a in cert.normal],
        "offset": rat_str(cert.offset),
    }


# ---- command handlers -------------------------------------------------------


def _cmd_enumerate(args: argparse.Namespace) -> CommandResult:
    code = _load_code(args.family, args.input)
    vertices = enumerate_vertices(code, max_dim=args.max_dim)
    payload: dict[str, Any] = {
        "family": args.family,
        "dimension": dimension(code),
        "count": len(vertices),
    }
    if not args.count_only:
        payload["vertices"] = [format_vertex(x) for x in vertices]
    return CommandResult("ok", payload)


def _cmd_adjacent(args: argparse.Namespace) -> CommandResult:
    code = _load_code(args.family, args.input)
    d = dimension(code)
    vertices = enumerate_vertices(code, max_dim=args.max_dim)
    u = parse_vertex(args.u, d)
    v = parse_vertex(args.v, d)
    verdict = are_adjacent(vertices, u, v)
    payload: dict[str, Any] = {
        "family": args.family,
        "u": format_vertex(u),
        "v": format_vertex(v),
        "adjacent": verdict.adjacent,
    }
    if verdict.adjacent:
        assert verdict.face_certificate is not None
        payload["certificate"] = _face_payload(verdict.face_certificate)
    elif verdict.midpoint_certificate is not None:
        midpoint = [Fraction(a + b, 2) for a, b in zip(u, v)]
        payload["certificate"] = {
            "midpoint": [rat_str(c) for c in midpoint],
            "support": _support(verdict.midpoint_certificate.support),
        }
    else:
        seg = verdict.segment_certificate
        assert seg is not None
        payload["certificate"] = {
            "alpha": rat_str(seg.alpha),
            "point": [rat_str(c) for c in seg.point],
            "support": _support(seg.support),
        }
    return CommandResult("ok", payload)


def _cmd_matsui(args: argparse.Namespace) -> CommandResult:
    a = parse_matrix(_read_text(args.input))
    report = matsui_check(a, max_dim=args.max_dim)
    payload = {
        "part_empty": report.part_empty,
        "special_adjacent": report.special_adjacent,
        "criterion_holds": report.criterion_holds,
        "part_count": report.part_count,
        "vertex_count": report.vertex_count,
    }
    status = "ok" if report.criterion_holds else "property-failed"
    return CommandResult(status, payload)


def _artifact_payload(art: ReductionArtifact) -> dict[str, Any]:
    matrix = art.target.params
    return {
        "source": {"family": art.source.family, "dimension": dimension(art.source)},
        "target": {
            "family": art.target.family,
            "dimension": dimension(art.target),
            "rows": matrix.nrows,
            "cols": matrix.ncols,
        },
        "matrix": [" ".join(str(b) for b in row) for row in matrix.rows],
        "map": {
            "rows": [" ".join(str(c) for c in row) for row in art.amap.matrix],
            "offset": " ".join(str(c) for c in art.amap.offset),
        },
        "face_fixes": [f"{i + 1}={v}" for i, v in art.face_fixes],
    }


def _verification_payload(art: ReductionArtifact, max_dim: int) -> dict[str, Any]:
    report = verify_reduction(art, max_dim=max_dim)
    return {
        "image_equals_face_slice": report.image_equals_face_slice,
        "injective": report.injective,
        "face_is_supported": report.face_is_supported,
        "ok": report.ok,
    }


def _cmd_reduce(args: argparse.Namespace) -> CommandResult:
    chain = args.kind == "chain"
    parse = parse_graph if chain or args.kind == "stable-part" else parse_matrix
    source = parse(_read_text(args.input))
    payload: dict[str, Any] = {"kind": args.kind}
    if chain:
        arts = reduction_chain(source)
        payload["stages"] = [
            {"name": name, "source_dim": dimension(a.source), "target_dim": dimension(a.target)}
            for name, a in arts.stages
        ]
        final, checked = arts.composed, [*arts.stages, ("composed", arts.composed)]
    else:
        final = STAGE_BUILDERS[args.kind](source)
        checked = [(args.kind, final)]
    payload.update(_artifact_payload(final))
    status = "ok"
    if args.verify:
        checks = {name: _verification_payload(art, args.max_dim) for name, art in checked}
        if not all(check["ok"] for check in checks.values()):
            status = "property-failed"
        payload["verification"] = checks if chain else checks[args.kind]
    if args.out is not None:
        Path(args.out).write_text(format_matrix(final.target.params), encoding="ascii")
        payload["out"] = str(args.out)
    return CommandResult(status, payload)


def _cmd_refute_face(args: argparse.Namespace) -> CommandResult:
    g = parse_graph(_read_text(args.graph))
    pairs = parse_pairs(_read_text(args.pairs), g.vertex_count)
    refutation = refute_face(g, pairs)
    witness = refutation.witness
    code = stable(g)
    members = membership(code, witness.y_star) and membership(code, witness.y_star_bar)
    total = tuple(a + b for a, b in zip(pairs[0][0], pairs[0][1]))
    sums = tuple(a + b for a, b in zip(witness.y_star, witness.y_star_bar)) == total
    new_pair = {witness.y_star, witness.y_star_bar}
    distinct = all({y, ybar} != new_pair for y, ybar in pairs)
    status = "ok" if members and sums and distinct else "property-failed"
    payload: dict[str, Any] = {
        "pair_count": len(pairs),
        "t": witness.t,
        "S": sorted(i + 1 for i in witness.s_set),
        "y_star": format_vertex(witness.y_star),
        "y_star_bar": format_vertex(witness.y_star_bar),
        "midpoint": [rat_str(c) for c in refutation.midpoint],
        "checks": {
            "in_polytope": members,
            "sum_matches": sums,
            "distinct_from_inputs": distinct,
        },
    }
    return CommandResult(status, payload)


def _cmd_face_check(args: argparse.Namespace) -> CommandResult:
    code = _load_code(args.family, args.input)
    d = dimension(code)
    vertices = enumerate_vertices(code, max_dim=args.max_dim)
    subset = parse_vertex_list(_read_text(args.subset), d)
    certificate = is_face(subset, vertices)
    payload: dict[str, Any] = {
        "family": args.family,
        "subset_size": len(subset),
        "face": certificate is not None,
    }
    if certificate is not None:
        payload["certificate"] = _face_payload(certificate)
    return CommandResult("ok", payload)


# ---- parser -----------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser, *, max_dim: bool = True) -> None:
    parser.add_argument("--json", action="store_true", help="emit JSON instead of text")
    if max_dim:
        parser.add_argument(
            "--max-dim",
            type=int,
            default=DEFAULT_ENUMERATION_CAP,
            help="enumeration dimension cap (default %(default)s)",
        )


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyadj",
        description="Exact adjacency, face, and reduction tools for 0/1-polytope families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list the vertices of a polytope")
    p.add_argument("family", choices=FAMILIES)
    p.add_argument("input", help="matrix file, or graph file for the stable family")
    p.add_argument("--count-only", action="store_true", help="report the count only")
    _add_common(p)
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("adjacent", help="decide adjacency of two vertices")
    p.add_argument("family", choices=FAMILIES)
    p.add_argument("input")
    p.add_argument("u", help="first vertex as a 0/1 string")
    p.add_argument("v", help="second vertex as a 0/1 string")
    _add_common(p)
    p.set_defaults(handler=_cmd_adjacent)

    p = sub.add_parser("matsui", help="special-vertex adjacency versus partition feasibility")
    p.add_argument("input", help="matrix file with exactly three ones per row")
    _add_common(p)
    p.set_defaults(handler=_cmd_matsui)

    p = sub.add_parser("reduce", help="run one reduction stage or the whole chain")
    p.add_argument("kind", choices=(*STAGE_BUILDERS, "chain"))
    p.add_argument("input", help="graph file for stable-part/chain, matrix file otherwise")
    p.add_argument("--verify", action="store_true", help="check the face-embedding properties")
    p.add_argument("--out", help="write the target matrix to this file")
    _add_common(p)
    p.set_defaults(handler=_cmd_reduce)

    p = sub.add_parser("refute-face", help="construct a witness pair from equal-sum pairs")
    p.add_argument("graph", help="graph file")
    p.add_argument("pairs", help="pairs file, two 0/1 strings per line")
    _add_common(p, max_dim=False)
    p.set_defaults(handler=_cmd_refute_face)

    p = sub.add_parser("face-check", help="test whether a vertex subset is a face")
    p.add_argument("family", choices=FAMILIES)
    p.add_argument("input")
    p.add_argument("subset", help="file listing one vertex per line")
    _add_common(p)
    p.set_defaults(handler=_cmd_face_check)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if getattr(args, "max_dim", 0) > DEFAULT_ENUMERATION_CAP:
        sys.stderr.write(
            f"warning: enumeration cap raised to {args.max_dim}; dimensions above "
            f"{DEFAULT_ENUMERATION_CAP} can be slow\n"
        )
    try:
        result = args.handler(args)
    except Defect as exc:
        result = CommandResult("property-failed", {"error": str(exc)})
    except (PolytopeError, OSError) as exc:
        result = CommandResult("input-error", {"error": str(exc)})
    _emit(result, args.json)
    return _EXIT[result.status]


if __name__ == "__main__":
    sys.exit(main())
