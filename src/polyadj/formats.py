"""Text formats for matrices, graphs, vertices, and pair files.

Matrix: a header line "m n", then m lines of n space-separated 0/1
tokens.  Graph: a header line "p <vertices> <edges>", then one line
"e u v" per edge with 1-based endpoints.  Vertex: a contiguous 0/1
string in layout order.  Pairs: one pair per line, two vertex strings
separated by whitespace.  Writers and parsers round-trip exactly;
blank lines are ignored everywhere.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import BadEdge, FormatError
from .model import BinaryMatrix, Bits, Graph


def _lines(text: str) -> list[str]:
    return [ln.strip() for ln in text.splitlines() if ln.strip()]


def _naturals(tokens: list[str]) -> bool:
    # str.isdigit alone passes other scripts' digits and superscripts
    return all(tok.isascii() and tok.isdigit() for tok in tokens)


def parse_matrix(text: str) -> BinaryMatrix:
    lines = _lines(text)
    if not lines:
        raise FormatError("empty matrix payload")
    header = lines[0].split()
    if len(header) != 2 or not _naturals(header):
        raise FormatError(f"matrix header must be 'm n', got {lines[0]!r}")
    m, n = int(header[0]), int(header[1])
    if len(lines) - 1 != m:
        raise FormatError(f"expected {m} matrix rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        toks = ln.split()
        if len(toks) != n or any(tok not in ("0", "1") for tok in toks):
            raise FormatError(f"bad matrix row {ln!r}: need {n} 0/1 tokens")
        rows.append(tuple(int(tok) for tok in toks))
    return BinaryMatrix(tuple(rows), n)


def format_matrix(a: BinaryMatrix) -> str:
    lines = [f"{a.nrows} {a.ncols}"]
    lines.extend(" ".join(str(v) for v in row) for row in a.rows)
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> Graph:
    lines = _lines(text)
    if not lines:
        raise FormatError("empty graph payload")
    header = lines[0].split()
    if len(header) != 3 or header[0] != "p" or not _naturals(header[1:]):
        raise FormatError(f"graph header must be 'p <vertices> <edges>', got {lines[0]!r}")
    nv, ne = int(header[1]), int(header[2])
    if len(lines) - 1 != ne:
        raise FormatError(f"expected {ne} edge lines, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        toks = ln.split()
        if len(toks) != 3 or toks[0] != "e" or not _naturals(toks[1:]):
            raise FormatError(f"bad edge line {ln!r}: need 'e u v'")
        edges.append((int(toks[1]) - 1, int(toks[2]) - 1))
    try:
        return Graph(nv, edges)
    except BadEdge as exc:
        # the reason counts vertices from 0, as Graph does; the line from 1
        raise FormatError(f"bad edge line {lines[exc.edge_index + 1]!r}: {exc}") from None


def format_graph(g: Graph) -> str:
    lines = [f"p {g.vertex_count} {g.edge_count}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def parse_vertex(token: str, dim: int | None = None) -> Bits:
    token = token.strip()
    if not token or any(ch not in "01" for ch in token):
        raise FormatError(f"bad vertex string {token!r}: need a contiguous 0/1 word")
    if dim is not None and len(token) != dim:
        raise FormatError(f"vertex {token!r} has {len(token)} coordinates, expected {dim}")
    return tuple(int(ch) for ch in token)


def format_vertex(x: Bits) -> str:
    return "".join(str(b) for b in x)


def parse_vertex_list(text: str, dim: int | None = None) -> list[Bits]:
    return [parse_vertex(ln, dim) for ln in _lines(text)]


def format_vertex_list(xs) -> str:
    return "\n".join(format_vertex(x) for x in xs) + ("\n" if xs else "")


def parse_pairs(text: str, dim: int | None = None) -> list[tuple[Bits, Bits]]:
    pairs = []
    for ln in _lines(text):
        toks = ln.split()
        if len(toks) != 2:
            raise FormatError(f"bad pair line {ln!r}: need two vertex strings")
        pairs.append((parse_vertex(toks[0], dim), parse_vertex(toks[1], dim)))
    return pairs


def format_pairs(pairs) -> str:
    return "".join(f"{format_vertex(u)} {format_vertex(v)}\n" for u, v in pairs)


def rat_str(value: Fraction) -> str:
    """Canonical wire form of a rational: numerator/denominator, always."""
    f = Fraction(value)
    return f"{f.numerator}/{f.denominator}"
