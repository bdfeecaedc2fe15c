"""Labelled subgraph embedding search (injective homomorphisms).

One kernel, `_search`, returns the images of a pattern in a host that extend
given pins, at most `limit` of them, placing next the pattern vertex with
the most embedded neighbours (ties by index).  Embeddings are labelled:
automorphic images count as distinct.  The kernel stops as soon as it holds
`limit` images, so a first-hit search builds one image tuple.

Rank space.  The kernel never sees host vertex ids.  A host order, a
permutation of the host vertices, gives each vertex its rank, its position
in that order; pins and images are ranks, and the host is handed over as
`masks`, where `masks[r]` is the neighbour set of the vertex of rank r as an
int with bit s set for each neighbour of rank s (`rank_masks`).  The
candidates at a step are the AND of the masks of the placed neighbours'
images minus the mask of used ranks, drawn lowest bit first; so images come
in host order, lexicographically in their ranks along the placement order.
The steps before the last keep their masks on a stack; the last step's mask
is drawn in one tight loop that appends an image per bit, so a leaf costs a
bit extraction and a tuple, not a round of the stack loop.  With no `limit`
that loop has no count to keep, so it runs without one; with a `limit` it
counts down the images left and stops at zero.

Plans.  What the kernel needs of the pattern for one set of pinned vertices
(the placement order, each step's neighbours placed before it, the pattern
edges between two pinned vertices and, for symmetry breaking, the orbit
bounds) is worked out once and kept in a memo on the pattern `Graph`
itself, as its adjacency is; so are its orbit representatives.  A call finds
its plan by the pin set alone: the pattern is never hashed or compared by
value, though every job builds a pattern of its own.

Entry points: `enumerate_embeddings` (all of them, as image tuples in host
vertex ids; its `host_order` must be a permutation of the host vertices,
else InputError, and without one the ranks are the ids; `dedup_by_edges`
keeps one per image edge set, as the solvers need), `find_embedding` (the
first, over rank masks and rank pins) and `Packing` (live edges as rank
masks, read in host ids; `first_through` finds the first copy through a
host edge, one `find_embedding` per arc tried).  No entry point builds an
`EmbeddedCopy`: callers wrap the images they hand out.

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

import sys
from typing import Optional

from .errors import InputError
from .graphs import Graph


def host_ranks(order) -> list[int]:
    """`rank[h]`: the position of vertex h in the permutation `order`."""
    rank = [0] * len(order)
    for r, h in enumerate(order):
        rank[h] = r
    return rank


def rank_masks(adj, order) -> list[int]:
    """`masks[r]`: the neighbours in `adj` of vertex `order[r]`, bit s set
    for the neighbour of rank s."""
    bit = [1 << r for r in host_ranks(order)]
    return [sum(map(bit.__getitem__, adj[h])) for h in order]


class Packing:
    """Live edges as rank masks under a host order, behind host ids.
    `flip` takes edges out or puts them back; `neighbours` come in host
    order and `edges` in normal form."""

    __slots__ = ("order", "rank", "masks")

    def __init__(self, adj, order):
        self.order, self.rank = list(order), host_ranks(order)
        self.masks = rank_masks(adj, order)

    def live(self, u: int, v: int) -> bool:
        return self.masks[self.rank[u]] >> self.rank[v] & 1 == 1

    def neighbours(self, x: int) -> list[int]:
        order, m, out = self.order, self.masks[self.rank[x]], []
        while m:
            low = m & -m
            m ^= low
            out.append(order[low.bit_length() - 1])
        return out

    def first_through(self, pattern: Graph, u: int, v: int) -> Optional[tuple]:
        """First image (host ids) of `pattern` through the edge {u, v}, or
        None: one `find_embedding` per `_arc_representatives` arc (p, q),
        pinned {p: u, q: v}, until a hit, which is the hit of every arc."""
        ru, rv = self.rank[u], self.rank[v]
        for p, q in _arc_representatives(pattern):
            img = find_embedding(pattern, self.masks, {p: ru, q: rv})
            if img is not None:
                return tuple([self.order[r] for r in img])
        return None

    def flip(self, edges) -> None:
        rank, masks = self.rank, self.masks
        for u, v in edges:
            masks[rank[u]] ^= 1 << rank[v]
            masks[rank[v]] ^= 1 << rank[u]

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in self.order for v in self.neighbours(u)
                if u < v]


def _memo(pattern: Graph) -> dict:
    """The pattern's memo: a frozenset of pinned vertices -> its `_Plan`, a
    tuple of items -> their orbit representatives, "arcs" -> the arc
    representatives and "masks" -> the pattern's own masks."""
    if pattern._memo is None:
        pattern._memo = {}
    return pattern._memo


class _Plan:
    """How the kernel places the unpinned pattern vertices around one set
    of pinned ones: the order (most placed neighbours first, ties by index),
    each vertex's neighbours placed before it, the pattern edges between two
    pinned vertices, and the orbit bounds, filled in on first use."""

    __slots__ = ("seq", "back", "pinned_edges", "after")

    def __init__(self, pattern: Graph, pinned: frozenset):
        placed = set(pinned)
        rest = [p for p in range(pattern.n) if p not in placed]
        seq, back = [], []
        while rest:
            p = min(rest, key=lambda p: (-len(pattern.adj[p] & placed), p))
            rest.remove(p)
            seq.append(p)
            back.append(tuple(pattern.adj[p] & placed))
            placed.add(p)
        self.seq, self.back = tuple(seq), tuple(back)
        self.pinned_edges = tuple(e for e in sorted(pattern.edges)
                                  if e[0] in pinned and e[1] in pinned)
        self.after = None


def _plan(pattern: Graph, pinned: frozenset) -> _Plan:
    memo = _memo(pattern)
    plan = memo.get(pinned)
    if plan is None:
        plan = memo[pinned] = _Plan(pattern, pinned)
    return plan


def _self_masks(pattern: Graph) -> list[int]:
    """The pattern's own masks, ranks equal to its vertex ids."""
    memo = _memo(pattern)
    if "masks" not in memo:
        memo["masks"] = rank_masks(pattern.adj, range(pattern.n))
    return memo["masks"]


def _orbit_bounds(pattern: Graph, pinned: frozenset) -> tuple:
    """Symmetry-breaking conditions, one tuple per placement step.

    With p1, p2, ... the placement order, O_i is the orbit of p_i under the
    automorphisms that fix the pins and p1..p_(i-1); the kernel finds it by
    embedding the pattern into itself with those vertices pinned to
    themselves.  Step k lists every p_i with p_k in O_i minus p_i: the image
    of p_k must come after the image of p_i in the host order.
    """
    plan = _plan(pattern, pinned)
    if plan.after is None:
        seq = plan.seq
        masks = _self_masks(pattern)
        after = [[] for _ in seq]
        fixed = {f: f for f in pinned}
        for i, p in enumerate(seq):
            for k in range(i + 1, len(seq)):
                if _search(pattern, masks, {**fixed, p: seq[k]}, limit=1):
                    after[k].append(p)
            fixed[p] = p
        plan.after = tuple(tuple(a) for a in after)
    return plan.after


def _search(pattern: Graph, masks, pins: dict,
            least_per_orbit: bool = False,
            limit: Optional[int] = None) -> list[tuple[int, ...]]:
    """The images (tuples of ranks) of injective homomorphisms
    pattern -> host that extend `pins`, in the kernel's order; only the
    first `limit` of them when `limit` is given.

    `masks[r]` is the neighbour mask of the host vertex of rank r; pins map
    pattern vertices to ranks.  Candidates are drawn lowest rank first;
    those of the last placement step in one loop per placed prefix.
    `least_per_orbit` keeps only the first image of each orbit under the
    automorphisms fixing the pins (`_orbit_bounds`).
    """
    room = sys.maxsize if limit is None else limit
    pn = pattern.n
    if pn == 0:
        return [()][:room]
    n_host = len(masks)
    image = [-1] * pn
    used = 0
    for p, r in pins.items():
        if not (0 <= p < pn):
            raise InputError(f"pinned pattern vertex {p} out of range")
        if not (0 <= r < n_host):
            raise InputError(f"pinned host vertex {r} out of range")
        if used >> r & 1:
            raise InputError("pins must map distinct vertices to distinct images")
        image[p] = r
        used |= 1 << r
    pinned = frozenset(pins)
    plan = _plan(pattern, pinned)
    # pins must already respect pattern edges among themselves
    for u, v in plan.pinned_edges:
        if not masks[image[u]] >> image[v] & 1:
            return []
    seq, back = plan.seq, plan.back
    if not seq or not room:
        return [tuple(image)][:room]
    after = _orbit_bounds(pattern, pinned) if least_per_orbit else None
    full = (1 << n_host) - 1

    # one candidate mask per placement step but the last, on `stack`; `used`
    # holds the same ranks whenever a step draws from its mask.  A step's
    # candidates are the unused ranks adjacent to the images of its placed
    # neighbours, past the images of its orbit bounds.  Once every earlier
    # step is placed, the last step's mask is drawn in one loop; its image
    # stays set after the loop, as no step's candidates read it.
    images = []
    append = images.append
    last = len(seq) - 1
    p_last = seq[last]
    stack: list[int] = []
    d = 0       # the step to place next
    while True:
        m = full ^ used
        for q in back[d]:
            m &= masks[image[q]]
        if after and after[d]:
            lo = max(map(image.__getitem__, after[d])) + 1
            m = m >> lo << lo
        if d != last:
            stack.append(m)
        elif limit is None:
            while m:
                low = m & -m
                m ^= low
                image[p_last] = low.bit_length() - 1
                append(tuple(image))
        else:
            while m:
                low = m & -m
                m ^= low
                image[p_last] = low.bit_length() - 1
                append(tuple(image))
                room -= 1
                if not room:
                    return images
        # advance the deepest step that has a candidate left
        while stack:
            d = len(stack) - 1
            p = seq[d]
            if image[p] != -1:
                used ^= 1 << image[p]
                image[p] = -1
            m = stack[d]
            if m:
                low = m & -m
                stack[d] = m ^ low
                image[p] = low.bit_length() - 1
                used |= low
                d += 1
                break
            stack.pop()
        else:
            return images


def enumerate_embeddings(pattern: Graph, host: Graph,
                         pins: Optional[dict] = None,
                         limit: Optional[int] = None,
                         host_order=None,
                         dedup_by_edges: bool = False
                         ) -> list[tuple[int, ...]]:
    """The images, in host vertex ids, of all labelled embeddings of
    `pattern` into `host` extending `pins`; only the first `limit` of them
    when `limit` is given (a negative `limit` raises InputError).

    Complete and ordered by `host_order` (default: ascending ids), which
    must be a permutation of the host vertices.  With `dedup_by_edges`, the
    first embedding of each image edge set is kept: the search skips every
    embedding that is not the first of its orbit under the automorphisms
    fixing the pins, which leaves one per edge set unless the pattern has
    an isolated vertex; only then are edge sets compared as well.
    """
    if limit is not None and limit < 0:
        raise InputError(f"limit must be nonnegative, not {limit}")
    pins = dict(pins) if pins else {}
    if host_order is None:
        order = None
        masks = rank_masks(host.adj, range(host.n))
    else:
        order = tuple(host_order)
        if sorted(order) != list(range(host.n)):
            raise InputError("host_order must be a permutation of the host "
                             "vertices")
        rank = {h: r for r, h in enumerate(order)}
        masks = rank_masks(host.adj, order)
        # an out-of-range pin stays as it is for the kernel to reject
        pins = {p: rank.get(h, h) for p, h in pins.items()}
    # with an isolated pattern vertex, edge sets are compared after the
    # search, and the limit can only be applied after that
    compare = dedup_by_edges and 0 in pattern.degrees()
    images = _search(pattern, masks, pins, least_per_orbit=dedup_by_edges,
                     limit=None if compare else limit)
    if order is not None:
        images = [tuple([order[r] for r in img]) for img in images]
    if compare:
        images = _first_per_edge_set(pattern, images)[:limit]
    return images


def _first_per_edge_set(pattern: Graph, images: list
                        ) -> list[tuple[int, ...]]:
    """The images whose edge set no earlier image has."""
    seen, out = set(), []
    for img in images:
        key = frozenset([(img[u], img[v]) if img[u] < img[v]
                         else (img[v], img[u]) for u, v in pattern.edges])
        if key not in seen:
            seen.add(key)
            out.append(img)
    return out


def find_embedding(pattern: Graph, masks, pins: dict
                   ) -> Optional[tuple[int, ...]]:
    """First embedding image (ranks) over rank masks and rank pins, or
    None."""
    first = _search(pattern, masks, pins, limit=1)
    return first[0] if first else None


def orbit_representatives(pattern: Graph, items: tuple) -> tuple:
    """The first of each Aut(pattern)-orbit among `items`, in their order.

    Items are equal-length tuples of distinct pattern vertices: vertices as
    1-tuples, arcs as pattern edges (p, q).
    """
    memo = _memo(pattern)
    reps = memo.get(items)
    if reps is None:
        masks = _self_masks(pattern)
        found = []
        for b in items:
            if not any(_search(pattern, masks, dict(zip(a, b)), limit=1)
                       for a in found):
                found.append(b)
        reps = memo[items] = tuple(found)
    return reps


def _arc_representatives(pattern: Graph) -> tuple:
    """The first arc of each Aut(pattern)-orbit, arcs ordered as sorted
    pattern edges with (p, q) before (q, p)."""
    memo = _memo(pattern)
    reps = memo.get("arcs")
    if reps is None:
        arcs = tuple(a for p, q in sorted(pattern.edges)
                     for a in ((p, q), (q, p)))
        reps = memo["arcs"] = orbit_representatives(pattern, arcs)
    return reps

