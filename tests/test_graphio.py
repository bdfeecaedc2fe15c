import pytest
from hypothesis import given, settings, strategies as st

from decomplab.errors import ParseError
from decomplab.graphio import (io_roundtrip, parse_certificate, parse_edge_list,
                               serialize_certificate, serialize_edge_list)
from decomplab.graphs import Decomposition, EmbeddedCopy, Graph, complete_graph


def test_parse_path():
    g = parse_edge_list("3\n0 1\n1 2\n")
    assert g == Graph(3, [(0, 1), (1, 2)])


def test_loop_rejected():
    with pytest.raises(ParseError):
        parse_edge_list("2\n0 0\n")


def test_comments_and_blanks():
    g = parse_edge_list("# header\n4\n\n0 1  # an edge\n2 3\n")
    assert g == Graph(4, [(0, 1), (2, 3)])


def test_out_of_range_and_dupes():
    with pytest.raises(ParseError):
        parse_edge_list("2\n0 5\n")
    with pytest.raises(ParseError):
        parse_edge_list("3\n0 1\n1 0\n")
    with pytest.raises(ParseError):
        parse_edge_list("")


@pytest.mark.parametrize("dup", ["2 4", "4 2"])
def test_duplicate_edge_reports_its_line(dup):
    with pytest.raises(ParseError) as info:
        parse_edge_list(f"5\n2 4\n0 1\n# note\n{dup}\n1 3\n")
    assert info.value.line == 5


def test_serialize_normal_form_idempotent():
    g = Graph(4, [(2, 3), (0, 1), (1, 2)])
    s = serialize_edge_list(g)
    assert s == serialize_edge_list(parse_edge_list(s))
    assert s.splitlines()[1:] == ["0 1", "1 2", "2 3"]


@st.composite
def random_graphs(draw):
    n = draw(st.integers(min_value=0, max_value=30))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=60)) if pairs else []
    return Graph(n, edges)


@settings(max_examples=60, deadline=None)
@given(random_graphs())
def test_roundtrip_property(g):
    assert parse_edge_list(serialize_edge_list(g)) == g


def test_certificate_roundtrip_identity():
    k3 = complete_graph(3)
    dec = Decomposition(k3, k3.edges, [EmbeddedCopy(k3, k3, (0, 1, 2))])
    s = serialize_certificate(dec)
    back = io_roundtrip(s, "certificate_json")
    assert back.host == dec.host
    assert back.target_edges == dec.target_edges
    assert [c.image for c in back.copies] == [(0, 1, 2)]
    assert serialize_certificate(back) == s


def test_certificate_bad_copy_rejected():
    with pytest.raises(ParseError):
        parse_certificate('{"host": {"n": 3, "edges": []}, '
                          '"pattern": {"n": 2, "edges": [[0,1]]}, '
                          '"target_edges": [], "copies": [[0]]}')


def test_non_partition_certificate_parses():
    # semantic partition failures are for verify_decomposition, not the parser
    text = ('{"host": {"n": 3, "edges": [[0,1],[0,2],[1,2]]}, '
            '"pattern": {"n": 2, "edges": [[0,1]]}, '
            '"target_edges": [[0,1]], "copies": [[0,1],[1,0]]}')
    dec = parse_certificate(text)
    assert len(dec.copies) == 2
