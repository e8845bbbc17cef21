"""Round-trip and rejection tests for the text formats."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polyadj import (
    BinaryMatrix,
    FormatError,
    Graph,
    format_graph,
    format_matrix,
    format_pairs,
    format_vertex,
    format_vertex_list,
    parse_graph,
    parse_matrix,
    parse_pairs,
    parse_vertex,
    parse_vertex_list,
    rat_str,
)

MATRIX_DOC = """\
2 3
1 1 0
0 1 1
"""

GRAPH_DOC = """\
p 4 3
e 1 2
e 2 3
e 1 4
"""


def test_matrix_round_trip():
    a = parse_matrix(MATRIX_DOC)
    assert a.rows == ((1, 1, 0), (0, 1, 1))
    assert a.ncols == 3
    assert format_matrix(a) == MATRIX_DOC
    assert parse_matrix(format_matrix(a)) == a


def test_matrix_blank_lines_ignored():
    assert parse_matrix("\n2 3\n\n1 1 0\n\n0 1 1\n\n") == parse_matrix(MATRIX_DOC)


def test_matrix_zero_rows():
    a = parse_matrix("0 5\n")
    assert a.nrows == 0 and a.ncols == 5


@pytest.mark.parametrize(
    "doc",
    [
        "",
        "2\n1 1\n1 1\n",
        "x 3\n1 1 1\n",
        "2 3\n1 1 0\n",
        "1 3\n1 2 0\n",
        "1 3\n1 1\n",
        "1 0\n\n",
    ],
)
def test_matrix_rejects(doc):
    with pytest.raises(FormatError):
        parse_matrix(doc)


@pytest.mark.parametrize(
    "parse, doc",
    [
        pytest.param(parse_matrix, "\u0661 1\n1\n", id="matrix-arabic-indic"),
        pytest.param(parse_graph, "p 2 1\ne \u0661 2\n", id="edge-arabic-indic"),
        pytest.param(parse_matrix, "\u00b2 1\n1\n", id="matrix-superscript"),
        pytest.param(parse_graph, "p \u00b2 0\n", id="header-superscript"),
        pytest.param(parse_graph, "p 3 1\ne 1 \u00b3\n", id="edge-superscript"),
    ],
)
def test_counts_are_ascii_digits(parse, doc):
    # str.isdigit() passes both kinds; int() reads Arabic-Indic digits, fails on superscripts
    with pytest.raises(FormatError):
        parse(doc)


def test_graph_round_trip():
    g = parse_graph(GRAPH_DOC)
    assert g.vertex_count == 4
    assert g.edges == ((0, 1), (0, 3), (1, 2))
    out = format_graph(g)
    assert parse_graph(out) == g
    # edges are emitted sorted, so the writer is canonical even when the
    # input listed them in another order
    assert out == "p 4 3\ne 1 2\ne 1 4\ne 2 3\n"


def test_graph_edgeless():
    g = parse_graph("p 3 0\n")
    assert g.vertex_count == 3
    assert g.edges == ()
    assert format_graph(g) == "p 3 0\n"


@pytest.mark.parametrize(
    "doc",
    [
        "",
        "p 3\ne 1 2\n",
        "q 3 1\ne 1 2\n",
        "p 3 2\ne 1 2\n",
        "p 3 1\nf 1 2\n",
        "p 3 1\ne 1 4\n",
        "p 3 1\ne 2 2\n",
        "p 3 2\ne 1 2\ne 2 1\n",
        "p 3 1\ne 0 1\n",
    ],
)
def test_graph_rejects(doc):
    with pytest.raises(FormatError):
        parse_graph(doc)


# the edge rule lives in Graph; parse_graph names the file line it broke
@pytest.mark.parametrize(
    "doc, line, reason",
    [
        ("p 3 1\ne 0 2\n", "e 0 2", "edge (-1, 1) has an endpoint outside 0..2"),
        ("p 3 1\ne 2 4\n", "e 2 4", "edge (1, 3) has an endpoint outside 0..2"),
        ("p 3 1\ne 3 3\n", "e 3 3", "self-loop at vertex 2"),
        ("p 3 2\ne 1 3\ne 1 3\n", "e 1 3", "duplicate edge (0, 2)"),
        ("p 3 2\ne 1 3\n  e 3 1 \n", "e 3 1", "duplicate edge (0, 2)"),
    ],
    ids=["endpoint-0", "endpoint-n+1", "self-loop", "duplicate", "duplicate-reversed"],
)
def test_graph_bad_edge_names_its_line(doc, line, reason):
    with pytest.raises(FormatError) as exc:
        parse_graph(doc)
    assert str(exc.value) == f"bad edge line {line!r}: {reason}"


def test_vertex_round_trip():
    assert parse_vertex("0110") == (0, 1, 1, 0)
    assert format_vertex((0, 1, 1, 0)) == "0110"
    assert parse_vertex(" 101 \n") == (1, 0, 1)


def test_vertex_dim_check():
    assert parse_vertex("101", dim=3) == (1, 0, 1)
    with pytest.raises(FormatError):
        parse_vertex("101", dim=4)


@pytest.mark.parametrize("token", ["", "012", "1 0", "ab"])
def test_vertex_rejects(token):
    with pytest.raises(FormatError):
        parse_vertex(token)


def test_vertex_list_round_trip():
    doc = "000\n101\n110\n"
    xs = parse_vertex_list(doc)
    assert xs == [(0, 0, 0), (1, 0, 1), (1, 1, 0)]
    assert format_vertex_list(xs) == doc
    assert format_vertex_list([]) == ""
    assert parse_vertex_list("") == []


def test_vertex_list_dim_check():
    with pytest.raises(FormatError):
        parse_vertex_list("000\n10\n", dim=3)


def test_pairs_round_trip():
    doc = "000 111\n110 001\n"
    pairs = parse_pairs(doc)
    assert pairs == [((0, 0, 0), (1, 1, 1)), ((1, 1, 0), (0, 0, 1))]
    assert format_pairs(pairs) == doc
    assert parse_pairs("") == []
    assert format_pairs([]) == ""


@pytest.mark.parametrize("doc", ["000\n", "000 111 101\n", "000 1x1\n"])
def test_pairs_rejects(doc):
    with pytest.raises(FormatError):
        parse_pairs(doc)


def test_pairs_dim_check():
    with pytest.raises(FormatError):
        parse_pairs("000 11\n", dim=3)


def test_rat_str():
    assert rat_str(Fraction(1, 2)) == "1/2"
    assert rat_str(Fraction(0)) == "0/1"
    assert rat_str(Fraction(-3, 6)) == "-1/2"
    assert rat_str(Fraction(4, 2)) == "2/1"


@given(
    st.lists(
        st.lists(st.integers(0, 1), min_size=3, max_size=3).map(tuple),
        min_size=1,
        max_size=6,
    ).map(tuple)
)
def test_matrix_round_trip_property(rows):
    a = BinaryMatrix(rows, 3)
    assert parse_matrix(format_matrix(a)) == a


@given(st.data())
def test_graph_round_trip_property(data):
    n = data.draw(st.integers(1, 6))
    all_edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(all_edges), unique=True, max_size=len(all_edges)) if all_edges else st.just([]))
    g = Graph(n, edges)
    assert parse_graph(format_graph(g)) == g


@given(st.lists(st.integers(0, 1), min_size=1, max_size=12).map(tuple))
def test_vertex_round_trip_property(bits):
    assert parse_vertex(format_vertex(bits)) == bits
