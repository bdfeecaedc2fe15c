"""Labelled subgraph embedding search (injective homomorphisms).

One kernel, `_search`, yields the images of a pattern in a host that extend
given pins, placing next the pattern vertex with the most embedded
neighbours (ties by index).  Embeddings are labelled: automorphic images
count as distinct.

Rank space.  The kernel never sees host vertex ids.  A host order, a
permutation of the host vertices, gives each vertex its rank, its position
in that order; pins and images are ranks, and the host is handed over as
`masks`, where `masks[r]` is the neighbour set of the vertex of rank r as an
int with bit s set for each neighbour of rank s (`rank_masks`).  The
candidates at a step are the AND of the masks of the placed neighbours'
images minus the mask of used ranks, drawn lowest bit first; so images come
in host order, lexicographically in their ranks along the placement order.
The steps before the last keep their masks on a stack; the last step's mask
is drawn in one tight loop that yields an image per bit, so a leaf costs a
bit extraction and a tuple, not a round of the stack loop.

Entry points: `enumerate_embeddings` (all of them, as image tuples in host
vertex ids; its `host_order` must be a permutation of the host vertices,
else InputError, and without one the ranks are the ids; `dedup_by_edges`
keeps one per image edge set, as the solvers need), `find_embedding` (the
first, over rank masks and rank pins) and `find_through_edge` (the first
through the host edge between two ranks).  No entry point builds an
`EmbeddedCopy`: callers wrap only the images they hand out.

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
from itertools import islice
from typing import Iterator, Optional

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


@lru_cache(maxsize=256)
def _self_masks(pattern: Graph) -> tuple[int, ...]:
    """The pattern's own masks, ranks equal to its vertex ids."""
    return tuple(rank_masks(pattern.adj, range(pattern.n)))


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
    masks = _self_masks(pattern)
    after = [[] for _ in seq]
    fixed = {f: f for f in pinned}
    for i, p in enumerate(seq):
        for k in range(i + 1, len(seq)):
            pins = {**fixed, p: seq[k]}
            if next(_search(pattern, masks, pins), None) is not None:
                after[k].append(p)
        fixed[p] = p
    return tuple(tuple(a) for a in after)


def _search(pattern: Graph, masks, pins: dict,
            least_per_orbit: bool = False) -> Iterator[tuple[int, ...]]:
    """Yield images (tuples of ranks) of injective homomorphisms
    pattern -> host.

    `masks[r]` is the neighbour mask of the host vertex of rank r; pins map
    pattern vertices to ranks.  Candidates are drawn lowest rank first;
    those of the last placement step in one loop per placed prefix.
    `least_per_orbit` yields only the first image of each orbit under the
    automorphisms fixing the pins (`_orbit_bounds`).
    """
    pn = pattern.n
    if pn == 0:
        yield ()
        return
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
    # pins must already respect pattern edges among themselves
    for u, v in pattern.edges:
        if image[u] != -1 and image[v] != -1 \
                and not masks[image[u]] >> image[v] & 1:
            return

    pinned = frozenset(pins)
    seq, back = _placement(pattern, pinned)
    if not seq:
        yield tuple(image)
        return
    after = _orbit_bounds(pattern, pinned) if least_per_orbit else None
    full = (1 << n_host) - 1

    def candidates(d: int, used: int) -> int:
        m = full ^ used
        for q in back[d]:
            m &= masks[image[q]]
        if after and after[d]:
            lo = max(map(image.__getitem__, after[d])) + 1
            m = m >> lo << lo
        return m

    # one candidate mask per placement step but the last, on `stack`; `used`
    # holds the same ranks whenever a step draws from its mask.  Once every
    # earlier step is placed, the last step's mask is drawn in one loop; its
    # image stays set after the loop, as no step's candidates read it.
    last = len(seq) - 1
    p_last = seq[last]
    stack: list[int] = []
    d = 0       # the step to place next
    while True:
        if d == last:
            m = candidates(last, used)
            while m:
                low = m & -m
                m ^= low
                image[p_last] = low.bit_length() - 1
                yield tuple(image)
        else:
            stack.append(candidates(d, used))
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
            return


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
    images = _search(pattern, masks, pins, least_per_orbit=dedup_by_edges)
    if order is not None:
        images = (tuple([order[r] for r in img]) for img in images)
    if dedup_by_edges and 0 in pattern.degrees():
        images = _first_per_edge_set(pattern, images)
    return list(islice(images, limit))


def _first_per_edge_set(pattern: Graph, images) -> Iterator[tuple[int, ...]]:
    """The images whose edge set no earlier image has."""
    seen = set()
    for img in images:
        key = frozenset([(img[u], img[v]) if img[u] < img[v]
                         else (img[v], img[u]) for u, v in pattern.edges])
        if key not in seen:
            seen.add(key)
            yield img


def find_embedding(pattern: Graph, masks, pins: dict
                   ) -> Optional[tuple[int, ...]]:
    """First embedding image (ranks) over rank masks and rank pins, or
    None."""
    for img in _search(pattern, masks, pins):
        return img
    return None


@lru_cache(maxsize=64)
def orbit_representatives(pattern: Graph, items: tuple) -> tuple:
    """The first of each Aut(pattern)-orbit among `items`, in their order.

    Items are equal-length tuples of distinct pattern vertices: vertices as
    1-tuples, arcs as pattern edges (p, q).
    """
    masks = _self_masks(pattern)
    reps = []
    for b in items:
        if all(next(_search(pattern, masks, dict(zip(a, b))), None) is None
               for a in reps):
            reps.append(b)
    return tuple(reps)


@lru_cache(maxsize=64)
def _arc_representatives(pattern: Graph) -> tuple:
    """The first arc of each Aut(pattern)-orbit, arcs ordered as sorted
    pattern edges with (p, q) before (q, p)."""
    arcs = tuple(a for p, q in sorted(pattern.edges) for a in ((p, q), (q, p)))
    return orbit_representatives(pattern, arcs)


def find_through_edge(pattern: Graph, masks, u: int, v: int
                      ) -> Optional[tuple[int, ...]]:
    """First image (ranks) of `pattern` using the host edge between ranks
    u and v, or None.

    Pins {p: u, q: v} for each `_arc_representatives` arc (p, q) in turn;
    the hit is the same as when every arc is tried.
    """
    for p, q in _arc_representatives(pattern):
        img = find_embedding(pattern, masks, {p: u, q: v})
        if img is not None:
            return img
    return None
