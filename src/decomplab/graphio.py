"""External formats: plain edge lists and certificate JSON.

Edge-list format: first line is the vertex count n; each later non-empty line
is "u v" with 0 <= u < v < n; '#' starts a comment.  Serialisation emits the
bit-exact normal form (edges sorted lexicographically), so
serialize(parse(serialize(x))) == serialize(x).

Reading an edge list accepts in bulk and walks only to name an error, as
`verify_decomposition` does: a plain text (the count alone on the first
line, then blank lines or lines of two unsigned decimal ends, with any line
breaks) is checked by one regular expression, split and converted once and
handed to `Graph`, which finds a loop or an end out of range; fewer edges
than edge lines means a repeated edge.  Any other text, and a plain one
that fails there, is read line by line: that reader also reads comments and
what `int()` reads (signs, underscores), and names the first bad line.

Certificate JSON: {"host": {"n":..,"edges":[[u,v],..]}, "pattern": {...},
"target_edges": [[u,v],..], "copies": [[image..],..]} with edges sorted and
copies sorted by image array.  A certificate that is not a valid partition
still parses; `verify_decomposition` is the judge of validity.

The writer emits that text itself, with the keys in sorted order and no
spaces, exactly as `json.dumps(..., sort_keys=True, separators=(",", ":"))`
would: each edge array is sorted by its int codes u*n + v (the order of the
pairs for in-range edges) and each array is written with one join.  It
refuses with `InputError` what the reader would refuse: an id that is not an
int, a target edge out of range, or a copy image of the wrong length or
with a vertex out of range.

Reading a certificate accepts in bulk too.  A text in the writer's form
(the keys in sorted order, no spaces, unsigned ints with no leading zero,
at most one final line break) is matched by one regular expression that
captures the four arrays and the two counts.  Each array's rows are joined
and read by one `json.loads` into one list of ints, with -1 at each row
break, so the breaks show whether every row has its width; the rows are then
zipped into int tuples.  No list is built per row, and a tuple of ints drops
out of the garbage collector's view at its first collection, so reading a
large certificate sets off no full collection.  A target whose text is the
host's is the host's edge set itself; the other ranges are checked by the
`Graph` constructor, by the target being inside the host, and by the largest
id of an array.  Any other text, and one that fails a check there, is read
by `_parse_json`, the reference reader, which names the fault; the bulk pass
accepts only what it would accept, and returns the same certificate.  Every
writer text is read in bulk but one whose copies are of a pattern with no
vertices.

The reference reader validates each array of a certificate once: every
vertex count and id by type (a JSON integer; `1.9`, `"0"` and `true` are
refused, where `int()` would read them), the host and pattern edge lists by
the `Graph` constructor, the target edges in one pass after normalisation,
the copy images by length per copy and by range in bulk.  An edge repeated
in the host, the pattern or the target (in either order) is refused.
Every malformed input raises `ParseError`, never a bare `InputError` or a
`ValueError` (an int of over 4300 digits), naming `host`, `pattern` or
`target_edges` where the fault lies in one of them.
"""

from __future__ import annotations

import json
import re
from itertools import chain

from .errors import InputError, ParseError
from .graphs import Decomposition, EmbeddedCopy, Graph


# The plain edge-list text: the vertex count alone on the first line, then
# lines that are blank or hold two unsigned decimal ends.  CR, LF and CRLF
# all end a line, for `str.splitlines` as here (CRLF as an empty line more).
_PLAIN = re.compile(r"[ \t]*[0-9]+[ \t]*"
                    r"(?:[\r\n][ \t]*(?:[0-9]+[ \t]+[0-9]+[ \t]*)?)*")


def parse_edge_list(text: str) -> Graph:
    """Read an edge list; `ParseError` names the first bad line.

    A plain text is read in bulk; any other, or one the bulk pass refuses,
    by `_parse_lines` (see the module docstring).
    """
    if _PLAIN.fullmatch(text):
        try:    # int() refuses over 4300 digits, Graph loops and range
            ends = list(map(int, text.split()))
            g = Graph(ends[0], zip(ends[1::2], ends[2::2]))
        except (ValueError, InputError):
            pass
        else:
            if 2 * g.e == len(ends) - 1:        # no edge repeated
                return g
    return _parse_lines(text)


def _parse_lines(text: str) -> Graph:
    """`parse_edge_list` line by line: the reference reader."""
    n = None
    edges = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if n is None:
            try:
                n = int(line)
            except ValueError:
                raise ParseError("expected vertex count", line=lineno)
            if n < 0:
                raise ParseError("vertex count must be nonnegative", line=lineno)
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError("expected 'u v'", line=lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError("edge endpoints must be integers", line=lineno)
        if u == v:
            raise ParseError(f"loop at {u} not allowed", line=lineno)
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"edge ({u},{v}) out of range", line=lineno)
        e = (min(u, v), max(u, v))
        if e in edges:
            raise ParseError(f"duplicate edge ({u},{v})", line=lineno)
        edges.add(e)
    if n is None:
        raise ParseError("empty input: missing vertex count", line=1)
    return Graph(n, edges)


def serialize_edge_list(g: Graph) -> str:
    lines = [str(g.n)]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"


def _non_ints(arrays) -> list:
    """The entries of the arrays that are not ints, first to last.  A bool
    is not one: `int()` would read true as 1, cut 1.9 down to 1 and read
    "0" as 0."""
    if set(map(type, chain.from_iterable(arrays))) <= {int}:
        return []
    return [x for x in chain.from_iterable(arrays) if type(x) is not int]


def _check_ints(arrays, where: str = "") -> None:
    """Raise ValueError naming the first entry of the arrays that is not an
    int."""
    bad = _non_ints(arrays)
    if bad:
        raise ValueError(f"{json.dumps(bad[0])}{where} is not an integer")


def _graph_from_obj(obj, what: str) -> Graph:
    try:
        n, edges = obj["n"], obj["edges"]
        _check_ints([[n]])
        _check_ints(edges)
        g = Graph(n, edges)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed {what} object: {exc}")
    except InputError as exc:
        raise ParseError(f"{exc} in {what}")
    if g.e != len(edges):
        raise ParseError("duplicate edge ({},{}) in {}"
                         .format(*_first_repeat(edges), what))
    return g


def _by_code(edges, n: int) -> list:
    """Edges sorted by their codes u*n + v: for in-range edges (u < v < n)
    the order of the pairs."""
    return sorted(edges, key=lambda e: e[0] * n + e[1])


def _array_text(rows, row: str) -> str:
    """The JSON array of the tuples `rows`, each written by the format
    `row`."""
    return "[[" + "],[".join(map(row.__mod__, rows)) + "]]" if rows else "[]"


def serialize_certificate(dec: Decomposition) -> str:
    """The certificate's JSON text: keys sorted, no spaces, every edge array
    sorted and the copies sorted by image, each array written with one join.

    A target inside the host is written in the host's edge order.  A
    certificate that `parse_certificate` could not read back raises
    `InputError`: an id that is not an int, a target edge out of range, or
    a copy image of the wrong length or with a vertex out of range.
    """
    host, pattern, target = dec.host, dec.pattern, dec.target_edges
    n, k = host.n, pattern.n if pattern else 0
    hosted = _by_code(host.edges, n)
    if target is host.edges:
        targeted = hosted
    else:
        bad = _non_ints(target)
        if bad:
            raise InputError(f"target vertex {bad[0]!r} is not an int")
        if target <= host.edges:
            targeted = list(filter(target.__contains__, hosted))
        else:
            out = [e for e in target if not 0 <= e[0] < e[1] < n]
            if out:
                raise InputError("target edge ({},{}) out of range"
                                 .format(*min(out)))
            targeted = _by_code(target, n)
    images = [c.image for c in dec.copies]
    bad = _non_ints(images)
    if bad:
        raise InputError(f"copy image vertex {bad[0]!r} is not an int")
    if not set(map(len, images)) <= {k}:
        raise InputError("copy image length does not match pattern")
    if k and images and not (0 <= min(chain.from_iterable(images))
                             and max(chain.from_iterable(images)) < n):
        raise InputError("copy image vertex out of range")
    images.sort()
    edge = "%d,%d"
    return ('{"copies":%s,"host":{"edges":%s,"n":%d},'
            '"pattern":{"edges":%s,"n":%d},"target_edges":%s}\n'
            % (_array_text(images, ",".join(["%d"] * k)),
               _array_text(hosted, edge), n,
               _array_text(_by_code(pattern.edges, k) if pattern else [], edge),
               k, _array_text(targeted, edge)))


# The writer's certificate text: the keys in sorted order, no spaces, each
# array of unsigned decimals, commas and brackets, the counts decimals with
# no leading zero, and at most one final line break.  The arrays' structure
# is checked by `_ints`.
_ARRAY = r"(\[[\[\]0-9,]*\])"
_COUNT = r"(0|[1-9][0-9]*)"
_CANONICAL = re.compile(
    r'\{"copies":' + _ARRAY + r',"host":\{"edges":' + _ARRAY + r',"n":'
    + _COUNT + r'\},"pattern":\{"edges":' + _ARRAY + r',"n":' + _COUNT
    + r'\},"target_edges":' + _ARRAY + r'\}\n?')


def _ints(array: str, width: int) -> tuple[list, int]:
    """The ints of `array`, a JSON array of rows of `width` ints, in one
    list with -1 between rows, and the number of rows.

    The rows are joined and read by one `json.loads`, so no list is built
    per row.  The text has no minus sign, so the -1s are the row breaks,
    and they sit every `width + 1` places only if every row has `width`
    ints.  Raise ValueError where the text is not such an array, or where
    `json.loads` refuses an int (a leading zero, over 4300 digits).
    """
    if array == "[]":
        return [], 0
    body = array[2:-2].replace("],[", ",-1,")
    if (width < 1 or array[:2] != "[[" or array[-2:] != "]]"
            or "[" in body or "]" in body):
        raise ValueError("not an array of rows")
    ends = json.loads("[" + body + "]")
    rows = ends.count(-1) + 1
    if (len(ends) + 1 != rows * (width + 1)
            or ends[width::width + 1].count(-1) != rows - 1):
        raise ValueError(f"a row is not {width} wide")
    return ends, rows


def _rows(ends: list, width: int):
    """The rows of `_ints`'s list as int tuples."""
    return zip(*[ends[i::width + 1] for i in range(width)])


def _graph_in_bulk(n: int, array: str) -> Graph:
    ends, rows = _ints(array, 2)
    g = Graph(n, _rows(ends, 2))
    if g.e != rows:
        raise ValueError("an edge is repeated")
    return g


def _target_in_bulk(host: Graph, array: str) -> frozenset:
    ends, rows = _ints(array, 2)
    target = frozenset(_rows(ends, 2))
    if len(target) != rows:
        raise ValueError("an edge is repeated")
    if not target <= host.edges and (
            max(ends) >= host.n or any(u >= v for u, v in target)):
        raise ValueError("an edge is out of range, a loop or reversed")
    return target


def parse_certificate(text: str) -> Decomposition:
    """Read a certificate; `ParseError` names what is malformed.

    The writer's text is read in bulk; any other, or one the bulk pass
    refuses, by `_parse_json` (see the module docstring).
    """
    dec = _parse_canonical(text)
    return _parse_json(text) if dec is None else dec


def _parse_canonical(text: str):
    """The certificate of a text in the writer's form, read in bulk; None
    where the text is not in that form or fails a check, for `_parse_json`
    to name the fault."""
    m = _CANONICAL.fullmatch(text)
    if m is None:
        return None
    copies, hosted, n, patterned, k, targeted = m.groups()
    try:
        n, k = int(n), int(k)           # int() refuses over 4300 digits
        host = _graph_in_bulk(n, hosted)
        pattern = _graph_in_bulk(k, patterned)
        target = (host.edges if targeted == hosted
                  else _target_in_bulk(host, targeted))
        ends, _ = _ints(copies, k)
    except (ValueError, InputError):
        return None
    if ends and max(ends) >= n:
        return None
    dec = Decomposition(host, target)
    dec.copies = [EmbeddedCopy(pattern, im) for im in _rows(ends, k)]
    return dec


def _first_repeat(edges) -> tuple:
    """The first of `edges`, as written, whose normal form came before."""
    seen = set()
    for u, v in edges:
        e = (u, v) if u < v else (v, u)
        if e in seen:
            return u, v
        seen.add(e)


def _parse_json(text: str) -> Decomposition:
    """`parse_certificate` through `json.loads`: the reference reader."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON: {exc.msg}", line=exc.lineno, offset=exc.colno)
    except ValueError as exc:           # an int of over 4300 digits
        raise ParseError(f"bad JSON: {exc}")
    if not isinstance(obj, dict):
        raise ParseError("certificate must be a JSON object")
    host = _graph_from_obj(obj.get("host"), "host")
    pattern = _graph_from_obj(obj.get("pattern"), "pattern")
    n, k = host.n, pattern.n
    try:
        target, copies = obj.get("target_edges", []), obj.get("copies", [])
        _check_ints(target, " in target_edges")
        _check_ints(copies, " in copies")
        dec = Decomposition(host, target)
        images = [tuple(img) for img in copies]
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed certificate arrays: {exc}")
    bad = [e for e in dec.target_edges if not 0 <= e[0] < e[1] < n]
    if bad:
        raise ParseError("target edge ({},{}) out of range".format(*min(bad)))
    if len(dec.target_edges) != len(target):
        raise ParseError("duplicate edge ({},{}) in target_edges"
                         .format(*_first_repeat(target)))
    for img in images:
        if len(img) != k:
            raise ParseError("copy image length does not match pattern")
    if k and images and (min(map(min, images)) < 0
                         or max(map(max, images)) >= n):
        raise ParseError("copy image vertex out of range")
    dec.copies = [EmbeddedCopy(pattern, img) for img in images]
    return dec
