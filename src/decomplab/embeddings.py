"""Labelled subgraph embedding search (injective homomorphisms).

One kernel, `_search`, yields the images of a pattern in a host that extend
given pins, placing next the pattern vertex with the most embedded
neighbours (ties by index), each over the host order.  Embeddings are
labelled: automorphic images count as distinct.  Entry points:
`enumerate_embeddings` (all of them; `dedup_by_edges` keeps one per image
edge set, as the solvers need), `find_embedding` (the first, over a raw
adjacency view) and `find_through_edge` (the first through a given host
edge).

Orbit rule: pinning a pattern vertex or arc succeeds exactly when pinning
any other member of its Aut(F)-orbit does, so pinned callers try only the
first member of each orbit (`orbit_representatives`; a and b share an orbit
when the kernel embeds the pattern into itself with a pinned to b).

The same rule along a stabiliser chain breaks symmetry in full enumeration
(Grochow & Kellis, RECOMB 2007).  With p1, p2, ... the placement order and
O_i the orbit of p_i under the automorphisms fixing the pins and p1..p_(i-1),
requiring every other member of O_i to land later in the host order than
p_i keeps exactly the first embedding of each orbit, which is the one the
edge-set dedup keeps; so `dedup_by_edges` visits one embedding per copy
(more only where an isolated pattern vertex moves freely).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Optional

from .errors import InputError
from .graphs import EmbeddedCopy, Graph, GraphMap


@lru_cache(maxsize=256)
def _placement(pattern: Graph, pinned: frozenset) -> tuple[tuple, tuple]:
    """The order in which the kernel places the unpinned pattern vertices
    (most placed neighbours first, ties by index), and for each vertex its
    neighbours placed before it."""
    placed = set(pinned)
    rest = [p for p in range(pattern.n) if p not in placed]
    seq, back = [], []
    while rest:
        p = min(rest, key=lambda p: (-len(pattern.adj[p] & placed), p))
        rest.remove(p)
        seq.append(p)
        back.append(tuple(pattern.adj[p] & placed))
        placed.add(p)
    return tuple(seq), tuple(back)


@lru_cache(maxsize=256)
def _orbit_bounds(pattern: Graph, pinned: frozenset) -> tuple:
    """Symmetry-breaking conditions, one tuple per placement step.

    With p1, p2, ... the placement order, O_i is the orbit of p_i under the
    automorphisms that fix the pins and p1..p_(i-1); the kernel finds it by
    embedding the pattern into itself with those vertices pinned to
    themselves.  Step k lists every p_i with p_k in O_i minus p_i: the image
    of p_k must come after the image of p_i in the host order.
    """
    seq, _ = _placement(pattern, pinned)
    after = [[] for _ in seq]
    fixed = {f: f for f in pinned}
    for i, p in enumerate(seq):
        for k in range(i + 1, len(seq)):
            pins = {**fixed, p: seq[k]}
            if next(_search(pattern, pattern.adj, pattern.n, pins),
                    None) is not None:
                after[k].append(p)
        fixed[p] = p
    return tuple(tuple(a) for a in after)


@lru_cache(maxsize=8)
def _ranks(order: tuple) -> dict:
    """Position of each host vertex in a host order."""
    return {h: i for i, h in enumerate(order)}


def _search(pattern: Graph, adj, n_host: int, pins: dict,
            host_order=None, least_per_orbit: bool = False
            ) -> Iterator[tuple[int, ...]]:
    """Yield images (tuples) of injective homomorphisms pattern -> host.

    `adj` is an indexable of neighbour-sets for the host; `host_order`, a
    sequence of distinct host vertices, fixes the candidate order, so images
    come in lexicographic order of their host-order ranks along the
    placement order.  `least_per_orbit` yields only the first image of each
    orbit under the automorphisms fixing the pins (`_orbit_bounds`).
    """
    pn = pattern.n
    if pn == 0:
        yield ()
        return
    image = [-1] * pn
    used = set()
    for p, h in pins.items():
        if not (0 <= p < pn):
            raise InputError(f"pinned pattern vertex {p} out of range")
        if not (0 <= h < n_host):
            raise InputError(f"pinned host vertex {h} out of range")
        if h in used:
            raise InputError("pins must map distinct vertices to distinct images")
        image[p] = h
        used.add(h)
    # pins must already respect pattern edges among themselves
    for u, v in pattern.edges:
        if image[u] != -1 and image[v] != -1 and image[v] not in adj[image[u]]:
            return

    pinned = frozenset(pins)
    seq, back = _placement(pattern, pinned)
    if not seq:
        yield tuple(image)
        return
    after = _orbit_bounds(pattern, pinned) if least_per_orbit else None
    order = tuple(range(n_host) if host_order is None else host_order)
    rank = _ranks(order)
    whole = len(rank) == n_host

    def candidates(d: int) -> Iterator[int]:
        # lazy: a first-hit search stops at the first candidate that fits;
        # `used` holds the same vertices whenever this step draws one
        lo = 0
        if after and after[d]:
            lo = max(rank[image[q]] for q in after[d]) + 1
        nbr_imgs = [image[q] for q in back[d]]
        if not nbr_imgs:
            return (h for h in order[lo:] if h not in used)
        cand = set(adj[nbr_imgs[0]]).intersection(
            *[adj[x] for x in nbr_imgs[1:]])
        if len(cand) ** 2 >= len(order) - lo:
            return (h for h in order[lo:] if h not in used and h in cand)
        # too few common neighbours to meet early in the walk: sort them
        cand -= used
        if lo or not whole:
            cand = [h for h in cand if rank.get(h, -1) >= lo]
        return iter(sorted(cand, key=rank.__getitem__))

    # one candidate iterator per placement step
    last = len(seq) - 1
    stack = [candidates(0)]
    while stack:
        d = len(stack) - 1
        p = seq[d]
        if image[p] != -1:
            used.discard(image[p])
            image[p] = -1
        h = next(stack[-1], None)
        if h is None:
            stack.pop()
            continue
        image[p] = h
        used.add(h)
        if d == last:
            yield tuple(image)
        else:
            stack.append(candidates(d + 1))


def enumerate_embeddings(pattern: Graph, host: Graph,
                         pins: Optional[dict] = None,
                         limit: Optional[int] = None,
                         host_order=None,
                         dedup_by_edges: bool = False) -> list[EmbeddedCopy]:
    """All labelled embeddings of `pattern` into `host` extending `pins`.

    Complete and deterministically ordered when `limit` is None.  With
    `dedup_by_edges`, the first embedding of each image edge set is kept:
    the search skips every embedding that is not the first of its orbit
    under the automorphisms fixing the pins, which leaves one per edge set
    unless the pattern has an isolated vertex; only then are edge sets
    compared as well.
    """
    pins = dict(pins) if pins else {}
    out = []
    seen = set()
    compare = dedup_by_edges and 0 in pattern.degrees()
    for img in _search(pattern, host.adj, host.n, pins, host_order=host_order,
                       least_per_orbit=dedup_by_edges):
        if compare:
            key = frozenset([(img[u], img[v]) if img[u] < img[v]
                             else (img[v], img[u]) for u, v in pattern.edges])
            if key in seen:
                continue
            seen.add(key)
        out.append(EmbeddedCopy(pattern, host, img))
        if limit is not None and len(out) >= limit:
            break
    return out


def find_embedding(pattern: Graph, adj, n_host: int, pins: dict,
                   host_order=None) -> Optional[tuple[int, ...]]:
    """First embedding image over a raw adjacency view, or None."""
    for img in _search(pattern, adj, n_host, pins, host_order=host_order):
        return img
    return None


@lru_cache(maxsize=64)
def orbit_representatives(pattern: Graph, items: tuple) -> tuple:
    """The first of each Aut(pattern)-orbit among `items`, in their order.

    Items are equal-length tuples of distinct pattern vertices: vertices as
    1-tuples, arcs as pattern edges (p, q).
    """
    reps = []
    for b in items:
        if all(next(_search(pattern, pattern.adj, pattern.n, dict(zip(a, b))),
                    None) is None for a in reps):
            reps.append(b)
    return tuple(reps)


def find_through_edge(pattern: Graph, adj, n_host: int, u: int, v: int,
                      host_order=None) -> Optional[tuple[int, ...]]:
    """First image of `pattern` using host edge {u, v}, or None.

    Pins {p: u, q: v} for the first arc (p, q) of each Aut(pattern)-orbit,
    arcs ordered as sorted pattern edges with (p, q) before (q, p); the hit
    is the same as when every arc is tried.
    """
    arcs = tuple(a for p, q in sorted(pattern.edges) for a in ((p, q), (q, p)))
    for p, q in orbit_representatives(pattern, arcs):
        img = find_embedding(pattern, adj, n_host, {p: u, q: v},
                             host_order=host_order)
        if img is not None:
            return img
    return None


def check_map(gmap: GraphMap, mode: str) -> bool:
    """Check a GraphMap property: homomorphism, edge_bijective or isomorphism.

    Malformed maps (image out of range) are rejected at GraphMap construction,
    not reported as False here.
    """
    if mode == "homomorphism":
        return gmap.is_homomorphism()
    if mode == "edge_bijective":
        return gmap.is_edge_bijective()
    if mode == "isomorphism":
        return gmap.is_isomorphism()
    raise InputError(f"unknown check_map mode: {mode!r}")
