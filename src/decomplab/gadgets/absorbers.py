"""Absorbers: gadgets A with A and A+H both decomposable.

The chain construction attaches pattern copies to the leftover, expands it
into a subdivided/attached pair of shapes sharing a common regular preimage,
and places four transformers between those shapes in the absorber's own
gadget space, so that either everything or everything-plus-the-leftover
falls apart into pattern copies.

The partite neighbourhood absorber targets star covers instead: a coloured
gadget able to swallow a prescribed bundle of extra edges at one vertex.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from ..divisibility import check_divisibility
from ..errors import DomainError, InputError, ResourceError, SizeGuardError
from ..graphs import (Decomposition, EmbeddedCopy, Graph, GraphMap,
                      degree_gcd_of, disjoint_union, norm_edge)
from ..invariants import (chi_colouring, colouring_invariants, renumber,
                          star_counts)
from .bipartite_c6 import build_c6_switcher
from .compose import GadgetSpace
from .switchers import _degree_multiset_split, build_k2r_switcher
from .transformers import _place_transformer
from .types import CertifiedAbsorber


# -- expanded / attached / subdivided shapes -----------------------------------


def _split_to_regular(g: Graph, r: int) -> GraphMap:
    """Split every vertex into degree-r pieces: the canonical regular
    preimage with an edge-bijective map onto g."""
    if any(d % r for d in g.degrees()):
        raise DomainError("degrees must be divisible by the split width")
    piece_of = {}
    img = []
    n0 = 0
    for v in range(g.n):
        k = g.degree(v) // r
        inc = sorted((min(v, w), max(v, w)) for w in g.adj[v])
        for j, e in enumerate(inc):
            piece_of[(v, e)] = n0 + j // r
        img.extend([v] * k)
        n0 += k
    edges = []
    for e in sorted(g.edges):
        a, b = e
        edges.append((piece_of[(a, e)], piece_of[(b, e)]))
    return GraphMap(Graph(n0, edges), g, tuple(img))


def _shapes(f: Graph, h: Graph, uv: tuple, r: int):
    """Maps from the regular preimage of `h`'s expansion onto its attached
    shape and its bouquet, and the attached shape's pattern copies.

    The expansion has one pattern copy per leftover edge x-y, taken low to
    high, with the pattern edge uv cut open and its ends wired to x and y;
    the leftover's vertices come first.  The attached shape identifies each
    copy's v with x, so the edge x-y materialises from y's wire: the
    leftover keeps its ids and copy i keeps its block in order, less v.  The
    bouquet identifies all leftover vertices into one hub.  Per block, the
    tail vertex plays the cut edge's far end, the block the rest.
    """
    u, v = uv
    k = f.n - 1
    # the cut copy; vertices f.n and f.n + 1 stand for the edge's endpoints
    cut = Graph(f.n + 2, [*f.without_edges([uv]).edges,
                          (u, f.n), (v, f.n + 1)])
    space = GadgetSpace(f)
    space.fresh(h.n)
    att = list(range(h.n))
    for i, (x, y) in enumerate(sorted(h.edges)):
        space.place(cut, {f.n: x, f.n + 1: y})
        att += [x if t == v else h.n + k * i + t - (t > v)
                for t in range(f.n)]
    rest = space.n - h.n
    loop = [0] * h.n + list(range(1, 1 + rest))
    ex = space.graph()
    split = _split_to_regular(ex, r)
    # each shape is the graph on n vertices that its image list makes of
    # the expansion, reached from the preimage through the split
    to_att, to_loop = [
        GraphMap(split.source,
                 Graph(n, {norm_edge(img[a], img[b]) for a, b in ex.edges}),
                 tuple(img[x] for x in split.image))
        for n, img in ((h.n + k * h.e, att), (1 + rest, loop))]
    copies = [att[off:off + f.n] for off in range(h.n, space.n, f.n)]
    return to_att, to_loop, copies


DEFAULT_ABSORBER_GUARD = 120000


def build_absorber(f: Graph, h: Graph,
                   guard: int = DEFAULT_ABSORBER_GUARD) -> CertifiedAbsorber:
    """Absorber for a divisible leftover `h`: both A and A+H decompose.

    Pieces: the attached shape minus the leftover, a regular preimage of it,
    the subdivided bouquet, a disjoint-copies shape with its own preimage,
    and four transformers tying them together.
    """
    r = degree_gcd_of(f)
    if f.e < 2:
        raise InputError("pattern needs at least two edges")
    if h.e == 0:
        empty = Graph(h.n, [])
        cert = Decomposition(empty, frozenset(), [])
        return CertifiedAbsorber(empty, frozenset(), cert, cert)
    rep = check_divisibility(f, h)
    if not rep.divisible:
        raise DomainError(
            f"leftover not divisible: edge residue {rep.edge_residue}, "
            f"degree residues {rep.degree_residues}")

    uv = min(f.edges)
    p = h.e // f.e

    # the leftover's shapes and those of p disjoint pattern copies
    to_att, to_loop, h_copies = _shapes(f, h, uv, r)
    pf_to_att, pf_to_loop, pf_copies = _shapes(
        f, disjoint_union(*([f] * p)), uv, r)
    if pf_to_loop.target != to_loop.target:
        # both bouquets subdivide p*e(F) pattern copies, so the shapes agree
        raise DomainError("bouquet mismatch (defect)")
    h0, pf0 = to_att.source, pf_to_att.source

    est = (h0.e + pf0.e) * 2 * (f.n ** 2) * 40
    if est > guard:
        raise SizeGuardError(f"projected absorber size ~{est} exceeds {guard}")

    # assemble the universe: the leftover block first, then every shared
    # shape planted once, then the four transformers' interiors.  The side
    # `cert1` decomposes A, the side `cert2` decomposes A + H.
    space = GadgetSpace(f)
    h_ids = space.fresh(h.n)
    # pinned to the leftover block, whose own edges stay out of the absorber
    att_map = space.place(to_att.target, dict(enumerate(h_ids)))
    h0_map = space.place(h0, {})
    loop_map = space.place(to_loop.target, {})
    pf0_map = space.place(pf0, {})
    pf_att_map = space.place(pf_to_att.target, {})

    star = build_k2r_switcher(f, r)
    c6 = build_c6_switcher(f)
    # T1: preimage + T1 in A, h + attached(h) + T1 in A + H;
    # T2: bouquet + T2 in A, preimage + T2 in A + H;
    # T3: attached(pf) + T3 in A, pf preimage + T3 in A + H;
    # T4: pf preimage + T4 in A, bouquet + T4 in A + H
    for phi, src_map, dst_map, swap in (
            (to_att, h0_map, att_map, False),
            (to_loop, h0_map, loop_map, True),
            (pf_to_att, pf0_map, pf_att_map, True),
            (pf_to_loop, pf0_map, loop_map, False)):
        _place_transformer(space, phi, src_map, dst_map, star, c6, swap)

    for tag, copies, shape_map in (("cert1", h_copies, att_map),
                                   ("cert2", pf_copies, pf_att_map)):
        for img in copies:
            space.record(tag, [shape_map[x] for x in img])
    for j in range(p):                             # the p standalone copies
        space.record("cert2", pf_att_map[j * f.n:(j + 1) * f.n])

    h_edges = frozenset(norm_edge(h_ids[a], h_ids[b]) for a, b in h.edges)
    cert_a = space.finalize("cert1")
    return CertifiedAbsorber(cert_a.host, h_edges, cert_a,
                             space.finalize("cert2", h_edges))


# -- colour rotation and the partite neighbourhood absorber ---------------------


def _glue_rotated_copies(f: Graph, vs, cs, s, rotate=False):
    """Glue copies of f at the listed vertices into one hub; with rotate,
    copy i has its 1..s-1 classes shifted cyclically by i+1 (the last copy
    keeps the original colours).  Returns (graph, hub, colouring, vmaps)."""
    space = GadgetSpace(f)
    hub = space.fresh_one()
    col = {hub: s}
    vmaps = []
    for i, (v, c) in enumerate(zip(vs, cs)):
        vmap = space.place(f, {v: hub})
        shift = (i + 1) if rotate else 0
        for x in range(f.n):
            if x != v:
                col[vmap[x]] = s if c[x] == s else (
                    (c[x] - 1 + shift) % (s - 1) + 1)
        vmaps.append(vmap)
    return space.graph(), hub, col, vmaps


def _swap12(c):
    return tuple(2 if x == 1 else 1 if x == 2 else x for x in c)


def _hub_counts(g: Graph, hub: int, col: dict, s: int) -> list:
    return [sum(1 for y in g.adj[hub] if col[y] == i)
            for i in range(1, s)]


@dataclass
class _Rotater:
    """A pattern-decomposable hub graph with both the balanced and the
    (m-1, m+1, m, ..) neighbourhood count tuples achievable."""

    graph: Graph
    hub: int
    m: int
    s: int
    col_balanced: dict
    col_skew: dict
    f_copy_images: list        # pattern-copy images decomposing the graph


def _rotater_pair(f: Graph) -> _Rotater:
    inv = colouring_invariants(f)
    chi = inv.chi
    use_chi = chi >= 3 and inv.theta == 1

    if not use_chi:
        s = chi + 1
        _, base = chi_colouring(f)
        v = 0
        nbr_class = base[min(f.adj[v])]
        remap = renumber(base, {base[v]: s, nbr_class: 1}, 3)
        c = {x: remap[base[x]] for x in range(f.n)}
        m = f.degree(v)
        fp, hub, col, vmaps = _glue_rotated_copies(
            f, [v] * (s - 1), [c] * (s - 1), s, rotate=True)
        f_imgs = [tuple(vmap) for vmap in vmaps]
        # skew: in the unshifted copy, recolour one hub neighbour from 1 to
        # 2 (that copy has no colour 2 at all, so properness is free)
        ident = vmaps[-1]
        col_skew = dict(col)
        pick = next(x for x in sorted(f.adj[v]) if c[x] == 1)
        assert all(col[ident[x]] != 2 for x in range(f.n) if x != v)
        col_skew[ident[pick]] = 2
    else:
        s = chi
        # write 1 as a combination of achievable hub class differences
        diffs = {}
        for cand, x, counts in star_counts(f, chi):
            d = counts[0] - counts[1]
            if d and abs(d) not in diffs:
                # oriented so that x sees |d| more of class 1 than of class 2
                diffs[abs(d)] = (x, cand if d > 0 else _swap12(cand))
        neg, pos = _degree_multiset_split(sorted(diffs), 1)
        picks = ([diffs[val] for val in pos]
                 + [(x, _swap12(cand)) for x, cand in map(diffs.get, neg)])
        joined, hub0, col0, sub_vmaps = _glue_rotated_copies(
            f, [x for x, _ in picks],
            [dict(enumerate(cc)) for _, cc in picks], s)
        m = sum(f.degree(x) for x, _ in picks)
        fp, hub, col, vmaps = _glue_rotated_copies(
            joined, [hub0] * (s - 1), [col0] * (s - 1), s, rotate=True)
        f_imgs = [tuple([vmap[x] for x in sub])
                  for vmap in vmaps for sub in sub_vmaps]
        # skew: swap classes 1 and 2 throughout the unshifted copy, whose
        # hub surplus of class 1 over class 2 is one by construction
        ident = vmaps[-1]
        col_skew = dict(col)
        for x in range(joined.n):
            if x != hub0 and col[ident[x]] in (1, 2):
                col_skew[ident[x]] = 3 - col[ident[x]]

    counts = _hub_counts(fp, hub, col, s)
    assert counts == [m] * (s - 1), counts
    skew_counts = _hub_counts(fp, hub, col_skew, s)
    assert skew_counts == [m - 1, m + 1] + [m] * (s - 3), skew_counts
    assert all(col_skew[a] != col_skew[b] for a, b in fp.edges)
    return _Rotater(fp, hub, m, s, col, col_skew, f_imgs)


@dataclass
class PartiteNeighbourhoodAbsorber:
    graph: Graph
    colouring: dict
    x: int
    w: tuple
    cover_plain: Decomposition     # a star cover of x in T
    cover_with_w: Decomposition    # a star cover of x in T + xW


def build_partite_neighbourhood_absorber(f: Graph, b: int,
                                         guard: int = 60000
                                         ) -> PartiteNeighbourhoodAbsorber:
    """Coloured gadget swallowing a prescribed class-1 edge bundle at one
    vertex: both the bare star and the star plus the bundle admit covers.

    The hub graph pair with balanced and near-balanced neighbourhood counts
    does the balancing; leftover per-class surpluses are averaged out by
    skew copies and the result is consumed cell by cell by balanced copies.
    """
    if b < 1:
        raise InputError("bundle multiplier must be positive")
    r = degree_gcd_of(f)
    rot = _rotater_pair(f)
    s, m = rot.s, rot.m
    M = (s - 1) * m
    br = b * r

    # per-degree best class-1 capacity when a copy is glued at a vertex
    _, base = chi_colouring(f)
    best_w: dict = {}
    pick_for: dict = {}
    for v in range(f.n):
        heavy, w_v = Counter(base[y] for y in f.adj[v]).most_common(1)[0]
        d = f.degree(v)
        if d not in best_w or w_v > best_w[d]:
            best_w[d] = w_v
            pick_for[d] = (v, heavy)
    degs = sorted(best_w)

    # the smallest t = br + j*M (j < 400) that is a degree sum carrying
    # enough class-1 slots; dp[t] depends only on smaller t
    dp = {0: 0}
    back = {}
    for t in range(1, br + 399 * M + 1):
        for d in degs:
            if t - d in dp:
                cand = dp[t - d] + best_w[d]
                if t not in dp or cand > dp[t]:
                    dp[t] = cand
                    back[t] = d
        if t >= br and (t - br) % M == 0 and t in dp and dp[t] >= br:
            break
    else:
        raise ResourceError("no copy multiset reaches the bundle size")
    chosen_degrees = []
    while t:
        chosen_degrees.append(back[t])
        t -= back[t]

    space = GadgetSpace(f)
    x = space.fresh_one()
    col = {x: s}
    cover_with_w = []

    # F'' : the chosen copies glued at x, colour-heaviest class sent to 1
    star = []                      # x's neighbours in F''
    for d in chosen_degrees:
        v, heavy = pick_for[d]
        remap = renumber(base, {base[v]: s, heavy: 1}, 2)
        vmap = space.place(f, {v: x})
        for t in range(f.n):
            if t == v:
                continue
            col[vmap[t]] = remap[base[t]]
        star.extend(vmap[y] for y in f.adj[v])
        cover_with_w.append(tuple(vmap))

    w_set = tuple(sorted(y for y in star if col[y] == 1)[:br])
    for wv in w_set:
        # the bundle edges exist only in T + xW
        space.edges.discard(norm_edge(x, wv))

    # per-class residual star degrees and the balancing transport
    residual = Counter(col[y] for y in star if y not in w_set)
    a = {i: residual[i] for i in range(1, s)}
    total = sum(a.values())
    assert total % (s - 1) == 0
    abar = total // (s - 1)
    assert abar % m == 0
    iplus = [i for i in a if a[i] > abar]
    iminus = [i for i in a if a[i] < abar]
    bmat: dict = {}
    room_row = {i: a[i] - abar for i in iplus}
    room_col = {jj: abar - a[jj] for jj in iminus}
    for i in iplus:
        for jj in iminus:
            amt = min(room_row[i], room_col[jj])
            if amt > 0:
                bmat[(i, jj)] = amt
                room_row[i] -= amt
                room_col[jj] -= amt
    assert not any(room_row.values()) and not any(room_col.values())
    p = sum(bmat.values())

    def glue_rot(colouring: dict, nbr_targets: dict = None):
        """Glue one hub-graph copy at x; nbr_targets optionally pins the
        hub's class-i neighbours onto existing vertices, and the edges
        between pinned vertices merge with those already there."""
        g = rot.graph
        pins = {rot.hub: x}
        by_class: dict = {}
        for y in sorted(g.adj[rot.hub]):
            by_class.setdefault(colouring[y], []).append(y)
        for cc, targets in (nbr_targets or {}).items():
            pins.update(zip(by_class[cc], targets))
        vmap = space.place(g, pins)
        for a_, b_ in g.edges:
            if a_ in pins and b_ in pins:
                space.edges.add(norm_edge(vmap[a_], vmap[b_]))
        for t in range(g.n):
            if t == rot.hub:
                continue
            tcol = colouring[t]
            if vmap[t] in col:
                assert col[vmap[t]] == tcol
            else:
                col[vmap[t]] = tcol
        return [tuple([vmap[v] for v in img]) for img in rot.f_copy_images]

    # skew copies shave one unit off a surplus class per use
    for (i, jj), cnt in sorted(bmat.items()):
        phi = {1: i, 2: jj, s: s}
        rest = [cc for cc in range(1, s) if cc not in (i, jj)]
        for cc in range(1, s):
            if cc in (1, 2):
                continue
            phi[cc] = rest.pop(0)
        for _ in range(cnt):
            shifted = {v: phi[c] for v, c in rot.col_skew.items()}
            cover_with_w.extend(glue_rot(shifted))

    # every class now meets x in p*m + abar vertices; consume them cell-wise
    star_now: dict = {i: [] for i in range(1, s)}
    for y in sorted(space.graph().adj[x]):
        star_now[col[y]].append(y)
    q = p + abar // m
    for i in range(1, s):
        assert len(star_now[i]) == q * m, (i, len(star_now[i]), q, m)
    cover_plain = []
    for cell in range(q):
        targets = {i: star_now[i][cell * m:(cell + 1) * m]
                   for i in range(1, s)}
        cover_plain.extend(glue_rot(rot.col_balanced, targets))

    t_graph = space.graph()
    if t_graph.n > guard:
        raise SizeGuardError(f"gadget grew to {t_graph.n} vertices")

    def star_cover(host: Graph, images: list) -> Decomposition:
        copies = [EmbeddedCopy(f, im) for im in images]
        return Decomposition(
            host, frozenset().union(*[c.edge_image() for c in copies]), copies)

    return PartiteNeighbourhoodAbsorber(
        t_graph, col, x, w_set, star_cover(t_graph, cover_plain),
        star_cover(t_graph.with_edges((x, wv) for wv in w_set), cover_with_w))
