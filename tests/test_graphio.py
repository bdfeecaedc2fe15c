import hashlib
import json
import re
import sys
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from decomplab import graphio
from decomplab.errors import InputError, ParseError
from decomplab.graphio import (_CANONICAL, _parse_json, _parse_lines,
                               parse_certificate, parse_edge_list,
                               serialize_certificate, serialize_edge_list)
from decomplab.gadgets.absorbers import build_absorber
from decomplab.graphs import (Decomposition, EmbeddedCopy, Graph,
                              complete_graph, cycle_graph)
from decomplab.solver import greedy_decompose


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


# -- the bulk reader against the line reader -----------------------------------


def _number(draw, value, plain):
    """`value` as text: decimal, or when not plain also with a sign, an
    underscore or leading zeros."""
    text = str(value)
    if plain:
        return text
    form = draw(st.sampled_from(["", "+", "0", "_"]))
    if form == "_" and len(text) > 1:
        return text[0] + "_" + text[1:]
    return form + text if form in ("+", "0") else text


@st.composite
def edge_list_texts(draw):
    """Edge-list texts, plain (the bulk reader's form) or not: comments,
    blank lines, CRLF, tabs, leading whitespace, '+3' and '1_0', and at most
    one bad line: a duplicate, a loop, an end out of range, or one or three
    tokens."""
    plain = draw(st.booleans())
    n = draw(st.integers(min_value=0, max_value=14))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rows = [list(e) if draw(st.booleans()) else [e[1], e[0]] for e in
            draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12))
            ] if pairs else []
    fault = draw(st.sampled_from(
        [None, None, None, "duplicate", "loop", "range", "one", "three"]))
    if fault is not None:
        u = draw(st.integers(min_value=0, max_value=max(n - 1, 0)))
        bad = {"duplicate": rows[0][::-1] if rows else [u, u],
               "loop": [u, u], "range": [u, n + draw(st.integers(0, 2))],
               "one": [u], "three": [u, u + 1, n]}[fault]
        rows.insert(draw(st.integers(min_value=0, max_value=len(rows))), bad)
    gap = st.sampled_from([" ", "\t", "  ", " \t"])
    lead = st.sampled_from(["", "", " ", "\t"])
    tail = st.sampled_from(["", "", " ", "\t"])
    lines = [draw(lead) + _number(draw, n, plain) + draw(tail)]
    for row in rows:
        if draw(st.integers(min_value=0, max_value=5)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t "])))
        if not plain and draw(st.integers(min_value=0, max_value=5)) == 0:
            lines.append("# " + " ".join(map(str, row)))
        line = draw(gap).join(_number(draw, x, plain) for x in row)
        line = draw(lead) + line + draw(tail)
        if not plain and draw(st.integers(min_value=0, max_value=3)) == 0:
            line += " # note"
        lines.append(line)
    breaks = ["\n", "\n", "\r\n", "\r"]
    text = "".join(line + draw(st.sampled_from(breaks)) for line in lines)
    return text if draw(st.booleans()) else text.rstrip("\r\n")


def _read(reader, text):
    try:
        return reader(text)
    except ParseError as exc:
        return str(exc), exc.line


@settings(max_examples=400, deadline=None)
@given(edge_list_texts())
def test_bulk_reader_agrees_with_the_line_reader(text):
    assert _read(parse_edge_list, text) == _read(_parse_lines, text)


def test_a_plain_text_is_read_in_bulk(monkeypatch):
    def refuse(text):
        raise AssertionError("read line by line")
    monkeypatch.setattr(graphio, "_parse_lines", refuse)
    text = "12\r\n\t0 1\r\n\n 11\t3 \n5  4\n"
    assert parse_edge_list(text) == Graph(12, [(0, 1), (3, 11), (4, 5)])
    k = complete_graph(40)
    assert parse_edge_list(serialize_edge_list(k)) == k


@pytest.mark.parametrize("text, message", [
    ("4\n0 1\n2 2\n", "loop at 2 not allowed (line 3)"),
    ("4\n0 1\n2 4\n", "edge (2,4) out of range (line 3)"),
    ("4\n0 1\n2 3\n1 0\n", "duplicate edge (1,0) (line 4)"),
    ("4\n0 1 2\n", "expected 'u v' (line 2)"),
])
def test_a_plain_text_the_bulk_pass_refuses_is_named_by_line(text, message):
    with pytest.raises(ParseError) as info:
        parse_edge_list(text)
    assert str(info.value) == message


def test_an_end_too_long_for_int_is_left_to_the_line_reader():
    text = "4\n0 1\n" + "9" * 5000 + " 1\n"
    assert isinstance(_read(_parse_lines, text), tuple)
    assert _read(parse_edge_list, text) == _read(_parse_lines, text)


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
    dec = Decomposition(k3, k3.edges, [EmbeddedCopy(k3, (0, 1, 2))])
    s = serialize_certificate(dec)
    back = parse_certificate(s)
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


# -- the writer against json.dumps ---------------------------------------------


def _json_text(dec):
    """The reference text: the old writer, sorted tuples through json.dumps."""
    pattern = dec.pattern
    obj = {"host": {"n": dec.host.n, "edges": sorted(dec.host.edges)},
           "pattern": {"n": pattern.n, "edges": sorted(pattern.edges)}
           if pattern else {"n": 0, "edges": []},
           "target_edges": sorted(dec.target_edges),
           "copies": sorted([c.image for c in dec.copies])}
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _big_ids():
    # ids of 4 and 5 digits, so code order must agree with pair order
    a, b, c, d = 999, 1000, 9999, 10000
    host = Graph(12000, [(c, d), (a, d), (a, c), (b, c), (b, d), (a, b),
                         (11999, 5)])
    k3 = complete_graph(3)
    return Decomposition(host, [(d, a), (c, a), (d, c), (b, c), (d, b)],
                         [EmbeddedCopy(k3, (d, c, a)),
                          EmbeddedCopy(k3, (c, b, 11999)),
                          EmbeddedCopy(k3, (b, a, d))])


WRITER_PANEL = {
    "empty": lambda: Decomposition(Graph(0), frozenset()),
    "no pattern": lambda: Decomposition(complete_graph(4),
                                        complete_graph(4).edges),
    "no pattern, strict target": lambda: Decomposition(
        complete_graph(4), [(3, 1), (0, 2)]),
    "4+ digit ids": _big_ids,
    "strict subset target": lambda: Decomposition(
        complete_graph(5), complete_graph(5).edges - {(0, 4), (1, 4)},
        [EmbeddedCopy(complete_graph(3), (2, 0, 1))]),
    "target outside the host": lambda: Decomposition(
        Graph(4, [(0, 1)]), [(2, 3), (1, 0)],
        [EmbeddedCopy(Graph(2, [(0, 1)]), (3, 2))]),
    "one-vertex pattern": lambda: Decomposition(
        Graph(3, [(0, 1)]), frozenset(),
        [EmbeddedCopy(Graph(1), (2,)), EmbeddedCopy(Graph(1), (0,))]),
    "greedy C4->K12": lambda: greedy_decompose(
        cycle_graph(4), complete_graph(12), seed=2).as_decomposition(
            complete_graph(12)),
}


@pytest.mark.parametrize("name", list(WRITER_PANEL))
def test_writer_text_is_the_json_dumps_text(name):
    dec = WRITER_PANEL[name]()
    s = serialize_certificate(dec)
    assert s == _json_text(dec)
    assert serialize_certificate(parse_certificate(s)) == s


def _unwritable(kind):
    k3 = complete_graph(3)
    if kind == "bool image id":
        return Decomposition(k3, k3.edges, [EmbeddedCopy(k3, (0, True, 2))])
    if kind == "bool target id":     # equal to the host edge (0,1)
        return Decomposition(k3, frozenset({(False, 1)}))
    if kind == "float target id":
        return Decomposition(k3, [(0, 1.0)])
    if kind == "target out of range":
        return Decomposition(k3, [(0, 1), (1, 3)])
    if kind == "target loop":
        return Decomposition(k3, [(2, 2)])
    if kind == "short image":
        return Decomposition(k3, k3.edges, [EmbeddedCopy(k3, (0, 1))])
    im = (0, 1, 3) if kind == "image out of range" else (0, -1, 2)
    return Decomposition(k3, k3.edges, [EmbeddedCopy(k3, im)])


@pytest.mark.parametrize("kind, message", [
    ("bool image id", "copy image vertex True is not an int"),
    ("bool target id", "target vertex False is not an int"),
    ("float target id", "target vertex 1.0 is not an int"),
    ("target out of range", "target edge (1,3) out of range"),
    ("target loop", "target edge (2,2) out of range"),
    ("short image", "copy image length does not match pattern"),
    ("image out of range", "copy image vertex out of range"),
    ("negative image vertex", "copy image vertex out of range"),
])
def test_writer_refuses_what_could_never_parse_back(kind, message):
    dec = _unwritable(kind)
    with pytest.raises(InputError) as info:
        serialize_certificate(dec)
    assert str(info.value) == message
    # the text the old writer wrote for it is refused by the reader
    with pytest.raises(ParseError):
        parse_certificate(_json_text(dec))


@lru_cache(maxsize=None)
def _c4_absorber():
    return build_absorber(cycle_graph(4), cycle_graph(4))


def _greedy_k140(k):
    host = complete_graph(140)
    return greedy_decompose(complete_graph(k), host, seed=k).as_decomposition(host)


GOLDEN_CERTIFICATES = {
    "greedy K3->K140": lambda: _greedy_k140(3),
    "greedy K4->K140": lambda: _greedy_k140(4),
    "C4 absorber cert_a": lambda: _c4_absorber().cert_a,
    "C4 absorber cert_ah": lambda: _c4_absorber().cert_ah,
}


@pytest.mark.parametrize("name, size, digest", [
    ("greedy K3->K140", 198254,
     "b93ab918a2e7dff9ebf59ed534709baf0054409ee06c8c1df02f6994195babe0"),
    ("greedy K4->K140", 177691,
     "9b0482572203eebefcf460c96b565072154eddc2da97b89d34e1f48100d86342"),
    ("C4 absorber cert_a", 211772,
     "a8e9c1180dfe555a35c5730031b5dc36df9d92ba477872ca68a3d9c4b0de00c0"),
    ("C4 absorber cert_ah", 211830,
     "979dd31c8ba6e265dde4b16022ac655cf5d5f8dc95edce31dc2d2532f9fda237"),
])
def test_certificate_text_is_golden(name, size, digest):
    # the text serialize_certificate wrote when it built one list per edge
    s = serialize_certificate(GOLDEN_CERTIFICATES[name]())
    assert len(s) == size
    assert hashlib.sha256(s.encode()).hexdigest() == digest
    assert serialize_certificate(parse_certificate(s)) == s


@pytest.mark.parametrize("what", ["host", "pattern"])
def test_negative_vertex_count_is_a_parse_error(what):
    obj = {"host": '{"n": 3, "edges": []}',
           "pattern": '{"n": 2, "edges": [[0,1]]}'}
    obj[what] = '{"n": -2, "edges": []}'
    text = (f'{{"host": {obj["host"]}, "pattern": {obj["pattern"]}, '
            '"target_edges": [], "copies": []}')
    with pytest.raises(ParseError) as info:
        parse_certificate(text)
    assert str(info.value) == f"vertex_count must be nonnegative in {what}"


def _certificate(host="[[0,1],[1,2]]", pattern="[[0,1]]",
                 target="[[0,1]]", copies="[[0,1]]"):
    return (f'{{"host": {{"n": 3, "edges": {host}}}, '
            f'"pattern": {{"n": 2, "edges": {pattern}}}, '
            f'"target_edges": {target}, "copies": {copies}}}')


@pytest.mark.parametrize("fields, message", [
    ({"host": "[[1,1]]"}, "loop at vertex 1 is not allowed in host"),
    ({"host": "[[2,3]]"}, "edge (2,3) out of range for 3 vertices in host"),
    ({"pattern": "[[0,2]]"},
     "edge (0,2) out of range for 2 vertices in pattern"),
    ({"host": "[[0,1,2]]"}, None),
    ({"pattern": "[[0,\"x\"]]"}, None),
    ({"target": "[[2,0],[3,1],[1,-1]]"}, "target edge (-1,1) out of range"),
    ({"target": "[[2,2]]"}, "target edge (2,2) out of range"),
    ({"target": "[[0]]"}, None),
    ({"copies": "[[0,1],[2]]"}, "copy image length does not match pattern"),
    ({"copies": "[[0,1],[2,3]]"}, "copy image vertex out of range"),
    ({"copies": "[[0,1],[-1,2]]"}, "copy image vertex out of range"),
    ({"copies": "[[0,1],7]"}, None),
])
def test_every_malformed_array_is_a_parse_error(fields, message):
    with pytest.raises(ParseError) as info:
        parse_certificate(_certificate(**fields))
    if message is not None:
        assert str(info.value) == message
    else:
        assert str(info.value).startswith("malformed")


# -- vertex counts and ids must be JSON integers --------------------------------

_TRIANGLE = ('{"host": {"n": 3, "edges": [[0,1],[0,2],[1,2]]}, '
             '"pattern": {"n": 3, "edges": [[0,1],[0,2],[1,2]]}, '
             '"target_edges": [[0,1],[0,2],[1,2]], "copies": [[0,1,2]]}')


def test_the_triangle_certificate_parses_and_verifies():
    from decomplab.solver import verify_decomposition
    assert verify_decomposition(parse_certificate(_TRIANGLE)) == (True, None)


def test_non_integer_ids_no_longer_pass_as_a_valid_certificate():
    # int() read 1.9 as 1, "0" as 0 and 2.5 as 2: this parsed and verified
    text = ('{"host": {"n": 3, "edges": [[0,1.9],["0",2],[1,2]]}, '
            '"pattern": {"n": 3, "edges": [[0,1],[0,2],[1,2]]}, '
            '"target_edges": [[0,1],[0,2],[1,2]], "copies": [[0,1,2.5]]}')
    with pytest.raises(ParseError) as info:
        parse_certificate(text)
    assert str(info.value) == "malformed host object: 1.9 is not an integer"


@pytest.mark.parametrize("old, new, message", [
    ('"host": {"n": 3,', '"host": {"n": 3.0,',
     "malformed host object: 3.0 is not an integer"),
    ('"edges": [[0,1],[0,2],[1,2]]}, "pattern"',
     '"edges": [[0,1],[0,2],[1,true]]}, "pattern"',
     "malformed host object: true is not an integer"),
    ('"pattern": {"n": 3,', '"pattern": {"n": "3",',
     'malformed pattern object: "3" is not an integer'),
    ('"edges": [[0,1],[0,2],[1,2]]}, "target',
     '"edges": [[0,1],[0,2.0],[1,2]]}, "target',
     "malformed pattern object: 2.0 is not an integer"),
    ('"target_edges": [[0,1],', '"target_edges": [[0,1.5],',
     "malformed certificate arrays: 1.5 in target_edges is not an integer"),
    ('"copies": [[0,1,2]]', '"copies": [[0,false,2]]',
     "malformed certificate arrays: false in copies is not an integer"),
])
def test_each_place_rejects_a_non_integer(old, new, message):
    assert _TRIANGLE.count(old) == 1
    with pytest.raises(ParseError) as info:
        parse_certificate(_TRIANGLE.replace(old, new))
    assert str(info.value) == message


# -- repeated edges and over-long ints are parse errors ---------------------------


@pytest.mark.parametrize("fields, message", [
    ({"host": "[[0,1],[1,2],[0,1]]"}, "duplicate edge (0,1) in host"),
    ({"host": "[[0,1],[2,1],[1,2]]"}, "duplicate edge (1,2) in host"),
    ({"pattern": "[[0,1],[1,0]]"}, "duplicate edge (1,0) in pattern"),
    ({"target": "[[0,1],[1,2],[0,1]]"},
     "duplicate edge (0,1) in target_edges"),
    ({"target": "[[1,2],[2,1]]"}, "duplicate edge (2,1) in target_edges"),
])
def test_a_repeated_edge_is_a_parse_error(fields, message):
    text = _certificate(**fields)
    canonical = json.dumps(json.loads(text), sort_keys=True,
                           separators=(",", ":"))
    assert _CANONICAL.fullmatch(canonical)
    for t in (text, canonical):
        with pytest.raises(ParseError) as info:
            parse_certificate(t)
        assert str(info.value) == message


def test_a_repeated_edge_no_longer_passes_as_a_valid_certificate():
    # this parsed to 3 + 3 edges, and the result verified
    text = ('{"copies":[[0,1,2]],"host":{"edges":[[0,1],[0,1],[0,2],[1,2]],'
            '"n":3},"pattern":{"edges":[[0,1],[0,2],[1,2]],"n":3},'
            '"target_edges":[[0,1],[0,2],[1,2],[1,2]]}\n')
    with pytest.raises(ParseError) as info:
        parse_certificate(text)
    assert str(info.value) == "duplicate edge (0,1) in host"
    fixed = text.replace("[[0,1],[0,1],", "[[0,1],", 1)
    with pytest.raises(ParseError) as info:
        parse_certificate(fixed)
    assert str(info.value) == "duplicate edge (1,2) in target_edges"


_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not 0 < _LIMIT < 5000,
                    reason="int() reads 5000 digits on this Python")
@pytest.mark.parametrize("old, new", [
    ('"n":3}', '"n":' + "9" * 5000 + "}"),
    ("[[0,1],", "[[0," + "1" * 5000 + "],"),
], ids=["vertex count", "vertex id"])
def test_an_int_too_long_for_int_is_a_parse_error(old, new):
    text = ('{"copies":[],"host":{"edges":[[0,1],[1,2]],"n":3},'
            '"pattern":{"edges":[],"n":0},"target_edges":[]}\n')
    assert text.count(old) == 1
    long = text.replace(old, new)
    for t in (long, long.replace(",", ", ")):       # bulk, then json.loads
        with pytest.raises(ParseError) as info:
            parse_certificate(t)
        assert str(info.value).startswith("bad JSON: ")


# -- the bulk reader against the json.loads reader ----------------------------------


def _decoded(reader, text):
    """What `reader` makes of `text`: the certificate's parts, or the
    `ParseError` text."""
    try:
        dec = reader(text)
    except ParseError as exc:
        return str(exc)
    return (dec.host, dec.target_edges, [c.pattern for c in dec.copies],
            [c.image for c in dec.copies])


@st.composite
def certificates(draw):
    """Random certificates, valid or not, that the writer writes: a host on
    up to 8 vertices, a pattern on up to 3 (so K = 0 and K = 1 too), a
    target that is the host's edge set, a subset of it or any edges, and
    copies with images anywhere in range."""
    def graph(n):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        return Graph(n, draw(st.lists(st.sampled_from(pairs), unique=True))
                     if pairs else [])
    host, pattern = graph(draw(st.integers(0, 8))), graph(draw(st.integers(0, 3)))
    n, k = host.n, pattern.n
    kind = draw(st.sampled_from(["host", "subset", "any"]))
    if kind == "host":
        target = host.edges
    elif kind == "subset":
        target = frozenset(draw(st.lists(st.sampled_from(sorted(host.edges)),
                                         unique=True)) if host.e else [])
    else:
        target = graph(n).edges
    images = draw(st.lists(st.tuples(*[st.integers(0, n - 1)] * k),
                           max_size=5)) if n or not k else []
    return Decomposition(host, target,
                         [EmbeddedCopy(pattern, im) for im in images])


_ROW = re.compile(r"\[[0-9,]*\]")        # an innermost array
_NUMBER = re.compile(r"[0-9]+")
_SHIFT = re.compile(r",([0-9]+)\],\[")  # the last int of a row, a row break


def _mutated(draw, text):
    """`text` with one mutation, or as it is."""
    kind = draw(st.sampled_from([
        None, "zero", "minus", "float", "true", "huge", "range", "space",
        "nest", "swap", "duplicate key", "width", "shift", "shift", "shift",
        "repeat", "newline", "crlf", "empty", "reverse"]))
    numbers = list(_NUMBER.finditer(text))
    num = draw(st.sampled_from(numbers))
    a, b = num.span()
    if kind in ("zero", "minus"):
        return text[:a] + ("0" if kind == "zero" else "-") + text[a:]
    if kind == "float":
        return text[:b] + ".0" + text[b:]
    if kind in ("true", "huge", "range", "nest"):
        new = {"true": "true", "huge": "1" + "0" * 4999,
               "range": str(int(num.group()) + draw(st.integers(1, 9))),
               "nest": "[" + num.group() + "]"}[kind]
        return text[:a] + new + text[b:]
    if kind == "space":
        i = draw(st.integers(0, len(text)))
        return text[:i] + " " + text[i:]
    if kind == "swap":
        obj = json.loads(text)
        return json.dumps(dict(reversed(obj.items())), separators=(",", ":"))
    if kind == "duplicate key":
        key = draw(st.sampled_from(['"copies":[]', '"target_edges":[[0,1]]',
                                    '"host":{"edges":[],"n":0}']))
        if draw(st.booleans()):
            return "{" + key + "," + text[1:]
        return text.rstrip("\n")[:-1] + "," + key + "}"
    if kind == "newline":
        return text.rstrip("\n") if draw(st.booleans()) else text + "\n"
    if kind == "crlf":
        return text.rstrip("\n") + "\r\n"
    m = _CANONICAL.fullmatch(text)
    arrays = [m.span(i) for i in (1, 2, 4, 6)]    # copies, host, pattern, target
    if kind == "empty":
        a, b = draw(st.sampled_from(arrays))
        return text[:a] + "[]" + text[b:]
    # a shift (one row shorter, the next longer) gets past Graph in the host
    # and pattern, so it is made in the copies or the target
    a, b = draw(st.sampled_from({"reverse": arrays[3:],
                                 "shift": arrays[::3]}.get(kind, arrays)))
    breaks = list(_SHIFT.finditer(text, a, b))
    if kind == "shift" and breaks:
        brk = draw(st.sampled_from(breaks))
        return (text[:brk.start()] + "],[" + brk.group(1) + ","
                + text[brk.end():])
    rows = list(_ROW.finditer(text, a, b))
    if kind in ("width", "repeat", "reverse") and rows:
        row = draw(st.sampled_from(rows))
        a, b = row.span()
        ends = row.group()[1:-1].split(",")
        if kind == "width":
            ends = ends[:-1] if draw(st.booleans()) else ends + ["0"]
        elif kind == "reverse":
            ends.reverse()
        else:
            return text[:b] + "," + row.group() + text[b:]
        return text[:a] + "[" + ",".join(ends) + "]" + text[b:]
    return text


@st.composite
def certificate_texts(draw):
    return _mutated(draw, serialize_certificate(draw(certificates())))


@settings(max_examples=500, deadline=None)
@given(certificate_texts())
def test_bulk_reader_agrees_with_the_json_reader(text):
    assert _decoded(parse_certificate, text) == _decoded(_parse_json, text)


def test_a_writer_text_is_read_in_bulk(monkeypatch):
    texts = [serialize_certificate(make()) for make in
             list(WRITER_PANEL.values()) + list(GOLDEN_CERTIFICATES.values())]
    want = [_decoded(_parse_json, t) for t in texts]

    def refuse(text):
        raise AssertionError("read by json.loads")
    monkeypatch.setattr(graphio, "_parse_json", refuse)
    for t, w in zip(texts, want):
        assert _decoded(parse_certificate, t) == w
        assert serialize_certificate(parse_certificate(t)) == t
    # read once, as the host's own edge set, where it is the whole host
    dec = parse_certificate(serialize_certificate(
        WRITER_PANEL["no pattern"]()))
    assert dec.target_edges is dec.host.edges
