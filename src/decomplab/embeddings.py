"""Labelled subgraph embedding search (injective homomorphisms).

One kernel, `_search`, yields the images of a pattern in a host that extend
given pins, placing next the pattern vertex with the most embedded
neighbours (ties by index).  Embeddings are labelled: automorphic images
count as distinct.  Entry points: `enumerate_embeddings` (all of them;
`dedup_by_edges` keeps one per image edge set, as the solvers need),
`find_embedding` (the first, over a raw adjacency view) and
`find_through_edge` (the first through a given host edge).

Orbit rule: pinning a pattern vertex or arc succeeds exactly when pinning
any other member of its Aut(F)-orbit does, so pinned callers try only the
first member of each orbit (`orbit_representatives`; a and b share an orbit
when the kernel embeds the pattern into itself with a pinned to b).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Optional

from .errors import InputError
from .graphs import EmbeddedCopy, Graph, GraphMap, norm_edge


def _search(pattern: Graph, adj, n_host: int, pins: dict,
            host_order=None) -> Iterator[tuple[int, ...]]:
    """Yield images (tuples) of injective homomorphisms pattern -> host.

    `adj` is an indexable of neighbour-sets for the host; `host_order` fixes
    the deterministic candidate iteration order.
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

    placed = [p for p in range(pn) if image[p] != -1]
    remaining = [p for p in range(pn) if image[p] == -1]
    if not remaining:
        yield tuple(image)
        return

    order = list(range(n_host)) if host_order is None else list(host_order)

    def candidates(p) -> list[int]:
        nbr_imgs = [image[q] for q in pattern.adj[p] if image[q] != -1]
        if nbr_imgs:
            cand = set(adj[nbr_imgs[0]])
            for x in nbr_imgs[1:]:
                cand &= adj[x]
        else:
            cand = None  # unconstrained
        out = []
        for h in order:
            if h in used:
                continue
            if cand is not None and h not in cand:
                continue
            out.append(h)
        return out

    def pick() -> int:
        best, best_key = None, None
        for p in remaining:
            emb_nbrs = sum(1 for q in pattern.adj[p] if image[q] != -1)
            key = (-emb_nbrs, p)
            if best_key is None or key < best_key:
                best, best_key = p, key
        return best

    stack = []
    p = pick()
    stack.append((p, candidates(p), 0))
    remaining.remove(p)
    while stack:
        p, cand, idx = stack[-1]
        if idx >= len(cand):
            stack.pop()
            remaining.append(p)
            if stack:
                q, qc, qi = stack[-1]
                used.discard(image[q])
                image[q] = -1
                stack[-1] = (q, qc, qi + 1)
            continue
        h = cand[idx]
        image[p] = h
        used.add(h)
        if not remaining:
            yield tuple(image)
            used.discard(h)
            image[p] = -1
            stack[-1] = (p, cand, idx + 1)
            continue
        q = pick()
        remaining.remove(q)
        stack.append((q, candidates(q), 0))


def enumerate_embeddings(pattern: Graph, host: Graph,
                         pins: Optional[dict] = None,
                         limit: Optional[int] = None,
                         host_order=None,
                         dedup_by_edges: bool = False) -> list[EmbeddedCopy]:
    """All labelled embeddings of `pattern` into `host` extending `pins`.

    Complete and deterministically ordered when `limit` is None.  With
    `dedup_by_edges`, one representative is kept per image edge set (that is,
    per automorphism orbit).
    """
    pins = dict(pins) if pins else {}
    out = []
    seen = set()
    for img in _search(pattern, host.adj, host.n, pins, host_order=host_order):
        if dedup_by_edges:
            key = frozenset(norm_edge(img[u], img[v]) for u, v in pattern.edges)
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
