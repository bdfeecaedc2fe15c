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

from itertools import accumulate
from math import gcd

from ..errors import DecompLabError, DomainError
from ..graphs import Graph, degree_gcd_of, disjoint_union
from ..invariants import (_connected_mask, _support_masks,
                          nonsupporting_subsets)
from .compose import GadgetSpace
from .switchers import (_component_multiset_split, _finalize_switcher,
                        build_c6_switcher_general, build_internal_teleporter,
                        build_k2r_switcher)
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
    nbr, _ = _support_masks(f)
    options = sorted((cnt, bin(mask).count("1"), mask)
                     for mask, cnt in nonsupporting_subsets(f, guard)
                     if _connected_mask(nbr, mask))
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
    e_heavy, e_light = [], []      # oriented (c1-end, c2-end) surplus edges
    for i, (ei, sign) in enumerate(occ):
        xs, _ = family[ei]
        es = [(a, b) if col0[a] == 0 else (b, a)
              for a, b in sorted(f.induced_edges(xs))]
        if i == star_occ:
            e0, es = es[0], es[1:]     # the distinguished edge stays out
        local = {x: j for j, x in enumerate(xs)}
        vmap = dict(zip(xs, space.place(
            Graph(len(xs), [(local[a], local[b]) for a, b in es]), {})))
        for x in xs:
            rho[vmap[x]] = C1 if col0[x] == 0 else C2
        if i == star_occ:
            u1, u2 = vmap[e0[0]], vmap[e0[1]]
        (e_heavy if sign > 0 else e_light).extend(
            (vmap[a], vmap[b]) for a, b in es)
        placements.append((ei, sign, vmap))
    assert len(e_heavy) == len(e_light)

    # teleporters for the stacked family pattern pair up the two sides
    delta_plus_raw = []       # pieces decomposing G0 (with e0)
    delta_minus_raw = []      # pieces decomposing G0 - e0
    blocks = [family[ei][0] for ei in range(len(family))]
    if e_light:
        offs = list(accumulate(map(len, blocks), initial=0))
        tel = build_internal_teleporter(
            disjoint_union(*[f.induced(xs) for xs in blocks]))

        def split_tilde_copies(cert, vmap) -> list[tuple[int, dict]]:
            """The certificate's copies mapped into the space, each split
            into its family pieces."""
            return [(b, {x: vmap[c.image[offs[b] + i]]
                         for i, x in enumerate(sorted(xs))})
                    for c in cert.copies for b, xs in enumerate(blocks)]

        # the teleporters' copies become family pieces, never recorded whole
        m = tel.model
        for (lx, ly), (hx, hy) in zip(e_light, e_heavy):
            vmap = space.place(m.graph, dict(zip(m.roots, (lx, ly, hx, hy))))
            for v_local, v_space in enumerate(vmap):
                if v_space not in rho:
                    # interior labels follow the teleporter's own fold
                    rho[v_space] = C1 if tel.compression.psi[v_local] == 0 else C2
            # cert1 covers the light edge, cert2 the heavy one
            delta_plus_raw.extend(split_tilde_copies(tel.cert1, vmap))
            delta_minus_raw.extend(split_tilde_copies(tel.cert2, vmap))

    for ei, sign, vmap in placements:
        (delta_plus_raw if sign > 0 else delta_minus_raw).append((ei, vmap))

    # -- extension of every family piece to a full pattern copy ---------------

    h1_plus, h2_plus = [], []      # surplus (c1,c6) / (c2,c3) edges
    h1_tilde, h2_tilde = [], []    # star-switcher material

    def surplus(img, lab, edges, h1, h2):
        """Append each placed edge labelled (c1,c6) to h1 and each labelled
        (c2,c3) to h2, as space ids from the c1 or c2 end."""
        for a, b in edges:
            if lab[b] in (C1, C2):
                a, b = b, a
            if (lab[a], lab[b]) in ((C1, C6_), (C2, C3)):
                (h1 if lab[a] == C1 else h2).append((img[a], img[b]))

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
        for x in range(f.n):
            if x in xset:
                continue
            if side(x) == 0:
                touches = any(y in xset and side(y) == 1 for y in f.adj[x])
                lab[x] = C3 if touches else A1
            else:
                touches = any(y in xset and side(y) == 0 for y in f.adj[x])
                lab[x] = C6_ if touches else A2
        img = space.place(f, vmap)
        for x in range(f.n):
            if x not in xset:
                rho[img[x]] = lab[x]
        new_edges = [(a, b) for a, b in f.edges
                     if a not in xset or b not in xset]
        for a, b in new_edges:
            pair = frozenset((lab[a], lab[b]))
            assert pair in _EXT_OK, f"extension edge hit labels {pair}"
        if plus_side:
            surplus(img, lab, new_edges, h1_plus, h2_plus)
        else:
            surplus(img, lab, new_edges, h1_tilde, h2_tilde)
        return tuple(img)

    plus_copies = [extend(ei, vmap, True) for ei, vmap in delta_plus_raw]
    minus_copies = [extend(ei, vmap, False) for ei, vmap in delta_minus_raw]

    # -- step-1 closure: u3, u6 and the bridging pattern copies ---------------

    vw = min(f.edges)
    v_star, w_star = vw

    def pattern_copy_on(cv, cw, lab_v, lab_w):
        """Copy of the pattern with (v*, w*) at (cv, cw), everything else
        fresh in the same label pair; the (v*,w*) edge joins two pins, so it
        is NOT added.  Its surplus edges are star-switcher material."""
        flip = col0[v_star]
        lab = [lab_v if col0[x] ^ flip == 0 else lab_w for x in range(f.n)]
        img = space.place(f, {v_star: cv, w_star: cw})
        for x in range(f.n):
            if x not in vw:
                rho[img[x]] = lab[x]
        surplus(img, lab, [e for e in f.edges if e != vw], h1_tilde, h2_tilde)
        return tuple(img)

    u6 = fresh_with(C6_)
    f1_img = pattern_copy_on(u1, u6, C1, C6_)
    u3 = fresh_with(C3)
    f2_img = pattern_copy_on(u2, u3, C2, C3)
    fe_copies = [pattern_copy_on(cx, cy, C1, C6_) for cx, cy in h1_plus]
    fe_copies += [pattern_copy_on(cx, cy, C2, C3) for cx, cy in h2_plus]

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
            space.glue(sw, tuple(leaves) + (c, prime[c]),
                       beta={0: 0, 1: 5, 2: 4} if rho[c] == C1
                       else {0: 1, 1: 2, 2: 3})

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

    roots = (u1, u2, u3, u4, u5, u6)
    e1 = [(u1, u2), (u3, u4), (u5, u6)]
    e2 = [(u2, u3), (u4, u5), (u6, u1)]

    psi = [-1] * space.n
    for x, label in rho.items():
        psi[x] = FOLD[label]
    base = Compression(6, C6_GRAPH, tuple(psi), 0)
    return _finalize_switcher(space, roots, e1, e2, base)


def build_c6_switcher(f: Graph) -> CertifiedSwitcher:
    """The six-cycle switcher: the width-0 bipartite one where tau = 1 (its
    family scan refuses every other pattern), else the general one."""
    if f.is_bipartite():
        try:
            return build_c6_switcher_bipartite(f)
        except DecompLabError:
            pass
    return build_c6_switcher_general(f)
