"""Width-0 six-cycle switcher for bipartite patterns with coprime
non-4-cycle-supporting subgraph counts (tau = 1).

Outline: a family of connected non-supporting induced subgraphs with coprime
edge counts yields two multisets whose totals differ by one edge; teleporters
pair the surplus edges, giving a structure G0 that decomposes both with and
without a distinguished edge e0.  Every piece is then extended to a full
pattern copy mapped onto a labelled 6-cycle so that only G0 sits on the
(c1,c2) pair.  Mirroring the (c1,c2) vertices and bridging the asymmetric
star edges with twin-centre star switchers produces the switcher, together
with a homomorphism onto the 6-cycle (a width-0 compression).
"""

from __future__ import annotations

from math import gcd

from ..errors import DomainError, SizeGuardError
from ..graphs import Graph, degree_gcd_of, norm_edge
from ..invariants import _connected_mask, _support_masks, is_c4_supporting
from .compose import GadgetSpace, attach_compressions, glue_switcher
from .switchers import (_component_multiset_split, _finalize_switcher,
                        build_internal_teleporter, build_k2r_switcher)
from .types import CertifiedSwitcher, Compression

# label codes: 0..5 are the 6-cycle positions; 6 and 7 are the off-frame
# classes that fold back onto positions 0 and 1
C1, C2, C3, C4_, C5, C6_, A1, A2 = range(8)
FOLD = {C1: 0, C2: 1, C3: 2, C4_: 3, C5: 4, C6_: 5, A1: 0, A2: 1}
C6_GRAPH = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
# edge labels allowed for extension edges (never the (c1,c2) pair)
_EXT_OK = {frozenset(p) for p in
           [(C1, C6_), (C2, C3), (C3, A2), (C6_, A1), (A1, A2)]}


def _nonsupporting_family(f: Graph, guard: int = 24) -> list[tuple]:
    """Greedy subfamily of connected non-supporting induced subgraphs whose
    edge counts reach gcd 1; entries are (vertices, count)."""
    if f.n > guard:
        raise SizeGuardError(f"subset scan guard: {f.n} > {guard}")
    nbr, edge_list = _support_masks(f)
    options = []
    for mask in range(1, 1 << f.n):
        cnt = sum(1 for u, v in edge_list
                  if (mask >> u) & 1 and (mask >> v) & 1)
        if cnt == 0:
            continue
        if not _connected_mask(nbr, mask):
            continue
        if is_c4_supporting(f, mask, nbr, edge_list):
            continue
        options.append((cnt, bin(mask).count("1"), mask))
    options.sort()
    chosen, g = [], 0
    for cnt, _, mask in options:
        if g > 0 and gcd(g, cnt) == g:
            continue
        g = gcd(g, cnt)
        chosen.append(([v for v in range(f.n) if (mask >> v) & 1], cnt))
        if g == 1:
            return chosen
    raise DomainError("tau must be 1: no coprime non-supporting family")


def build_c6_switcher_bipartite(f: Graph) -> CertifiedSwitcher:
    sides = f.bipartition()
    if sides is None:
        raise DomainError("pattern must be bipartite")
    col0 = [0 if v in sides[0] else 1 for v in range(f.n)]
    r = degree_gcd_of(f)

    family = _nonsupporting_family(f)
    m1_idx, m2_idx = _component_multiset_split([cnt for _, cnt in family])
    occ = [(ei, -1) for ei in m1_idx] + [(ei, +1) for ei in m2_idx]

    space = GadgetSpace(f)
    rho: dict = {}

    def fresh_with(label) -> int:
        v = space.fresh_one()
        rho[v] = label
        return v

    # -- stage 1: place the family copies and the distinguished edge ---------

    star_occ = next(i for i, (_, sign) in enumerate(occ) if sign > 0)
    placements = []
    u1 = u2 = None
    e0 = None
    for i, (ei, sign) in enumerate(occ):
        xs, _ = family[ei]
        vmap = {}
        for x in xs:
            vmap[x] = fresh_with(C1 if col0[x] == 0 else C2)
        skipped = None
        if i == star_occ:
            a, b = min(f.induced_edges(xs))
            v0, w0 = (a, b) if col0[a] == 0 else (b, a)
            u1, u2 = vmap[v0], vmap[w0]
            skipped = norm_edge(a, b)
        for a, b in f.induced_edges(xs):
            if norm_edge(a, b) == skipped:
                e0 = norm_edge(vmap[a], vmap[b])
                continue
            space.add_edge(vmap[a], vmap[b])
        placements.append((ei, sign, vmap, skipped))

    # oriented (c1-end, c2-end) surplus edges on either side
    e_heavy, e_light = [], []
    for ei, sign, vmap, skipped in placements:
        xs, _ = family[ei]
        for a, b in sorted(f.induced_edges(xs)):
            if norm_edge(a, b) == skipped:
                continue
            aa, bb = (a, b) if col0[a] == 0 else (b, a)
            (e_heavy if sign > 0 else e_light).append((vmap[aa], vmap[bb]))
    assert len(e_heavy) == len(e_light)

    # teleporters for the stacked family pattern pair up the two sides
    delta_plus_raw = []       # pieces decomposing G0 (with e0)
    delta_minus_raw = []      # pieces decomposing G0 - e0
    blocks = [family[ei][0] for ei in range(len(family))]
    if e_light:
        tilde = None
        offs = []
        n_off = 0
        tilde_parts = []
        for xs in blocks:
            offs.append(n_off)
            tilde_parts.append(f.induced(xs))
            n_off += len(xs)
        tilde = Graph(n_off, [(offs[b] + u, offs[b] + v)
                              for b, part in enumerate(tilde_parts)
                              for u, v in part.edges])
        tel = build_internal_teleporter(tilde)

        def split_tilde_copy(img) -> list[tuple[int, dict]]:
            out = []
            for b, xs in enumerate(blocks):
                sub = {x: img[offs[b] + i] for i, x in enumerate(sorted(xs))}
                out.append((b, sub))
            return out

        for (lx, ly), (hx, hy) in zip(e_light, e_heavy):
            g = glue_switcher(space, tel, (lx, ly, hx, hy))
            for v_local, v_space in enumerate(g.vmap):
                if v_space not in rho:
                    # interior labels follow the teleporter's own fold
                    rho[v_space] = C1 if tel.compression.psi[v_local] == 0 else C2
            for img in g.cert1_copies:        # covers the light edge
                delta_plus_raw.extend(split_tilde_copy(img))
            for img in g.cert2_copies:        # covers the heavy edge
                delta_minus_raw.extend(split_tilde_copy(img))

    for ei, sign, vmap, skipped in placements:
        piece = (ei, dict(vmap))
        (delta_plus_raw if sign > 0 else delta_minus_raw).append(piece)

    # -- extension of every family piece to a full pattern copy ---------------

    h1_plus, h2_plus = [], []      # surplus (c1,c6) / (c2,c3) edges
    h1_tilde, h2_tilde = [], []    # star-switcher material

    def extend(ei_or_block: int, vmap: dict, plus_side: bool):
        xs = blocks[ei_or_block]
        xset = set(xs)
        anyx = xs[0]
        flip = 0 if rho[vmap[anyx]] == (C1 if col0[anyx] == 0 else C2) else 1
        # sides are component-consistent; components disjoint from X keep col0
        side = lambda x: col0[x] ^ flip
        lab = {}
        for x in xs:
            lab[x] = C1 if side(x) == 0 else C2
            assert rho[vmap[x]] == lab[x]
        img = [None] * f.n
        for x in xs:
            img[x] = vmap[x]
        new_edges = []
        for x in range(f.n):
            if x in xset:
                continue
            if side(x) == 0:
                touches = any(y in xset and side(y) == 1 for y in f.adj[x])
                lab[x] = C3 if touches else A1
            else:
                touches = any(y in xset and side(y) == 0 for y in f.adj[x])
                lab[x] = C6_ if touches else A2
            img[x] = fresh_with(lab[x])
        for a, b in f.edges:
            if a in xset and b in xset:
                continue
            pair = frozenset((lab[a], lab[b]))
            assert pair in _EXT_OK, f"extension edge hit labels {pair}"
            space.add_edge(img[a], img[b])
            new_edges.append((img[a], img[b], lab[a], lab[b]))
        for ia, ib, la, lb in new_edges:
            if {la, lb} == {C1, C6_}:
                e = (ia, ib) if la == C1 else (ib, ia)
                (h1_plus if plus_side else h1_tilde).append(e)
            elif {la, lb} == {C2, C3}:
                e = (ia, ib) if la == C2 else (ib, ia)
                (h2_plus if plus_side else h2_tilde).append(e)
        return tuple(img)

    plus_copies = [extend(ei, vmap, True) for ei, vmap in delta_plus_raw]
    minus_copies = [extend(ei, vmap, False) for ei, vmap in delta_minus_raw]

    # -- step-1 closure: u3, u6 and the bridging pattern copies ---------------

    vw = min(f.edges)
    v_star, w_star = vw

    def pattern_copy_on(cv, cw, lab_v, lab_w):
        """Copy of the pattern with (v*, w*) at (cv, cw), everything else
        fresh in the same label pair; the (v*,w*) edge itself is NOT added."""
        flip = col0[v_star]
        lab = lambda x: lab_v if col0[x] ^ flip == 0 else lab_w
        img = [None] * f.n
        img[v_star], img[w_star] = cv, cw
        for x in range(f.n):
            if img[x] is None:
                img[x] = fresh_with(lab(x))
        edges_added = []
        for a, b in f.edges:
            if norm_edge(a, b) == norm_edge(v_star, w_star):
                continue
            space.add_edge(img[a], img[b])
            edges_added.append((img[a], img[b], lab(a), lab(b)))
        return tuple(img), edges_added

    u6 = fresh_with(C6_)
    f1_img, f1_edges = pattern_copy_on(u1, u6, C1, C6_)
    u3 = fresh_with(C3)
    f2_img, f2_edges = pattern_copy_on(u2, u3, C2, C3)
    for ia, ib, la, lb in f1_edges:
        if {la, lb} == {C1, C6_}:
            h1_tilde.append((ia, ib) if la == C1 else (ib, ia))
    for ia, ib, la, lb in f2_edges:
        if {la, lb} == {C2, C3}:
            h2_tilde.append((ia, ib) if la == C2 else (ib, ia))

    fe_copies = []
    for (cx, cy) in h1_plus:
        img, es = pattern_copy_on(cx, cy, C1, C6_)
        fe_copies.append(img)
        for ia, ib, la, lb in es:
            if {la, lb} == {C1, C6_}:
                h1_tilde.append((ia, ib) if la == C1 else (ib, ia))
    for (cx, cy) in h2_plus:
        img, es = pattern_copy_on(cx, cy, C2, C3)
        fe_copies.append(img)
        for ia, ib, la, lb in es:
            if {la, lb} == {C2, C3}:
                h2_tilde.append((ia, ib) if la == C2 else (ib, ia))

    # -- mirror the (c1,c2) half ----------------------------------------------

    prime = {}
    for x in list(rho):
        if rho[x] in (C1, C2):
            prime[x] = fresh_with(C5 if rho[x] == C1 else C4_)
    for x, y in sorted(space.graph().edges):
        px, py = prime.get(x), prime.get(y)
        if px is None and py is None:
            continue
        space.add_edge(px if px is not None else x,
                       py if py is not None else y)
    u5, u4 = prime[u1], prime[u2]

    def mirrored(img):
        return tuple(prime.get(x, x) for x in img)

    # -- star switchers bridge the asymmetric halves ---------------------------

    star_glued = []
    star_cache: dict = {}
    for star_edges in (h1_tilde, h2_tilde):
        by_centre: dict = {}
        for c, leaf in star_edges:
            by_centre.setdefault(c, []).append(leaf)
        for c, leaves in sorted(by_centre.items()):
            leaves = sorted(set(leaves))
            d = len(leaves)
            assert d % r == 0, f"star degree {d} not divisible by {r}"
            if d not in star_cache:
                star_cache[d] = build_k2r_switcher(f, d)
            sw = star_cache[d]
            g = glue_switcher(space, sw, tuple(leaves) + (c, prime[c]))
            star_glued.append((rho[c], sw, g))

    # -- record both certificates ------------------------------------------------

    for img in plus_copies:
        space.record("cert1", img)
        space.record("cert2", mirrored(img))
    for img in minus_copies:
        space.record("cert1", mirrored(img))
        space.record("cert2", img)
    for img in (f1_img, f2_img):
        space.record("cert1", mirrored(img))
        space.record("cert2", img)
    for img in fe_copies:
        space.record("cert1", mirrored(img))
        space.record("cert2", img)
    for _, _, g in star_glued:
        space.take(g)

    roots = (u1, u2, u3, u4, u5, u6)
    e1 = [(u1, u2), (u3, u4), (u5, u6)]
    e2 = [(u2, u3), (u4, u5), (u6, u1)]

    psi = [-1] * space.n
    for x, label in rho.items():
        psi[x] = FOLD[label]
    base = Compression(6, {rt: i for i, rt in enumerate(roots)},
                       C6_GRAPH, tuple(psi), 0)
    attachments = []
    for centre_label, sw, g in star_glued:
        if centre_label == C1:
            beta = {0: 0, 1: 5, 2: 4}
        else:
            beta = {0: 1, 1: 2, 2: 3}
        attachments.append((sw.compression, beta, g.vmap))
    comp = attach_compressions(space.n, base, attachments)
    return _finalize_switcher(space, roots, e1, e2, comp)
