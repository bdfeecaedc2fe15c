"""External formats: plain edge lists and certificate JSON.

Edge-list format: first line is the vertex count n; each later non-empty line
is "u v" with 0 <= u < v < n; '#' starts a comment.  Serialisation emits the
bit-exact normal form (edges sorted lexicographically), so
serialize(parse(serialize(x))) == serialize(x).

Certificate JSON: {"host": {"n":..,"edges":[[u,v],..]}, "pattern": {...},
"target_edges": [[u,v],..], "copies": [[image..],..]} with edges sorted and
copies sorted by image array.  A certificate that is not a valid partition
still parses; `verify_decomposition` is the judge of validity.

Each array of a certificate is validated once: every vertex count and id
by type (a JSON integer; `1.9`, `"0"` and `true` are refused, where `int()`
would read them), the host and pattern edge lists by the `Graph`
constructor, the target edges in one pass after normalisation, the copy
images by length per copy and by range in bulk.
Every malformed input raises `ParseError`, never a bare `InputError`,
naming `host` or `pattern` where the fault lies in one of them.
"""

from __future__ import annotations

import json
from itertools import chain

from .errors import InputError, ParseError
from .graphs import Decomposition, EmbeddedCopy, Graph


def parse_edge_list(text: str) -> Graph:
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


def _graph_to_obj(g: Graph) -> dict:
    return {"n": g.n, "edges": sorted(g.edges)}


def _check_ints(arrays, where: str = "") -> None:
    """Raise ValueError naming the first entry of the arrays that is not an
    int.  A bool is not one: `int()` would read true as 1, cut 1.9 down to 1
    and read "0" as 0."""
    if not set(map(type, chain.from_iterable(arrays))) <= {int}:
        bad = next(x for x in chain.from_iterable(arrays) if type(x) is not int)
        raise ValueError(f"{json.dumps(bad)}{where} is not an integer")


def _graph_from_obj(obj, what: str) -> Graph:
    try:
        n, edges = obj["n"], obj["edges"]
        _check_ints([[n]])
        _check_ints(edges)
        return Graph(n, edges)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed {what} object: {exc}")
    except InputError as exc:
        raise ParseError(f"{exc} in {what}")


def serialize_certificate(dec: Decomposition) -> str:
    # json encodes the sorted tuples as arrays
    pattern = dec.pattern
    obj = {
        "host": _graph_to_obj(dec.host),
        "pattern": _graph_to_obj(pattern) if pattern else {"n": 0, "edges": []},
        "target_edges": sorted(dec.target_edges),
        "copies": sorted([c.image for c in dec.copies]),
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def parse_certificate(text: str) -> Decomposition:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON: {exc.msg}", line=exc.lineno, offset=exc.colno)
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
    for img in images:
        if len(img) != k:
            raise ParseError("copy image length does not match pattern")
    if k and images and (min(map(min, images)) < 0
                         or max(map(max, images)) >= n):
        raise ParseError("copy image vertex out of range")
    dec.copies = [EmbeddedCopy(pattern, img) for img in images]
    return dec
