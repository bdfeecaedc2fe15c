"""Switcher builders.

Every certificate below is transcribed from an explicit construction, never
searched: each builder names the pattern copies that decompose gadget+E1 and
gadget+E2, so verification is linear and search-free.
"""

from __future__ import annotations

from collections import deque
from functools import reduce
from math import gcd

from ..errors import DomainError, InputError, ResourceError
from ..graphs import Graph, degree_gcd_of, norm_edge, path_graph
from ..invariants import chi_colouring, renumber
from .compose import GadgetSpace
from .types import Compression, CertifiedSwitcher, RootedModel

P2 = path_graph(2)  # three-vertex path used as the star root-compression


def _finalize_switcher(space: GadgetSpace, roots, e1, e2,
                       base: Compression) -> CertifiedSwitcher:
    """The switcher built in `space`; its compression is `base` with the
    compression of every switcher glued with a beta attached."""
    graph = space.graph()
    model = RootedModel(graph, tuple(roots))
    cert1 = space.finalize("cert1", extra_edges=e1)
    cert2 = space.finalize("cert2", extra_edges=e2)
    return CertifiedSwitcher(model, e1, e2, cert1, cert2,
                             space.compression(base))


# -- the grid switcher for a single 4-cycle ----------------------------------


def build_c4_switcher(f: Graph) -> CertifiedSwitcher:
    """Switcher between {u1u2, u3u4} and {u2u3, u4u1} for any pattern.

    Two families of pattern-minus-a-vertex copies live on an LxL grid
    (L = |F|-1), rows and columns, with the role of grid cell (i,j) given by
    index i+j mod L.  Cell (0,0) is split into the two extra roots u2/u4, and
    u1/u3 take the removed vertex's role in every row/column copy.
    """
    if f.e < 2:
        raise InputError("pattern needs at least two edges")
    ell = f.n - 1
    base_edge = min(f.edges)
    # relabel so the chosen edge runs between role 0 and role ell
    role = renumber(range(f.n), {base_edge[0]: 0, base_edge[1]: ell}, 1)
    perm = [role[v] for v in range(f.n)]
    fr = f.relabel(perm)          # role graph: edge (0, ell) exists
    f_rows = fr.without_vertices([ell])   # pattern minus the last role
    nbr_last = fr.adj[ell]                # roles adjacent to the last role

    space = GadgetSpace(f)
    u1, u2, u3, u4 = space.fresh(4)
    grid = {}
    for i in range(ell):
        for j in range(ell):
            if (i, j) == (0, 0):
                continue
            grid[(i, j)] = space.fresh_one()

    def row_vertex(i, j):
        # cell (0,0) belongs to u2 in its row copy and to u4 in its column
        return u2 if (i, j) == (0, 0) else grid[(i, j)]

    def col_vertex(i, j):
        return u4 if (i, j) == (0, 0) else grid[(i, j)]

    # rows: copy i places role (i+j) mod ell at cell (i, j)
    row_images = []
    for i in range(ell):
        img = [None] * ell
        for j in range(ell):
            img[(i + j) % ell] = row_vertex(i, j)
        row_images.append(img)
        for a, b in f_rows.edges:
            space.add_edge(img[a], img[b])
    col_images = []
    for j in range(ell):
        img = [None] * ell
        for i in range(ell):
            img[(i + j) % ell] = col_vertex(i, j)
        col_images.append(img)
        for a, b in f_rows.edges:
            space.add_edge(img[a], img[b])

    # u1 and u3 see every surviving cell whose role neighbours the last role
    star = {}
    for (i, j), v in grid.items():
        if (i + j) % ell in nbr_last:
            star[(i, j)] = v
            space.add_edge(u1, v)
            space.add_edge(u3, v)

    def full_copy(tag, partial_img, last_at):
        # roles back to original pattern vertices: vertex x plays role perm[x]
        img = list(partial_img) + [last_at]
        space.record(tag, [img[perm[x]] for x in range(f.n)])

    # cert1 decomposes S + {u1u2, u3u4}: u1 completes the rows, u3 the
    # columns; the split cell's row copy picks up u1u2, its column u3u4
    for i in range(ell):
        full_copy("cert1", row_images[i], u1)
    for j in range(ell):
        full_copy("cert1", col_images[j], u3)
    # cert2 swaps the closers
    for i in range(ell):
        full_copy("cert2", row_images[i], u3)
    for j in range(ell):
        full_copy("cert2", col_images[j], u1)

    # compression: the 4-cycle of roots joined onto a clique of the other
    # colour classes; width chi+1
    chi, col = chi_colouring(fr)
    k_c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    extra = chi - 2
    kn = 4 + extra
    k_edges = set(k_c4.edges)
    for a in range(4, kn):
        for b in range(a + 1, kn):
            k_edges.add((a, b))
        for rroot in range(4):
            k_edges.add((rroot, a))
    kg = Graph(kn, k_edges)
    # role ell's colour goes to node 0 (c1), role 0's to node 1
    colour_node = renumber(col, {col[ell]: 0, col[0]: 1}, 4)
    psi = [0] * space.n
    psi[u1], psi[u2], psi[u3], psi[u4] = 0, 1, 2, 3
    for (i, j), v in grid.items():
        psi[v] = colour_node[col[(i + j) % ell]]
    base = Compression(4, kg, tuple(psi), chi + 1)
    return _finalize_switcher(space, (u1, u2, u3, u4),
                              [(u1, u2), (u3, u4)], [(u2, u3), (u4, u1)],
                              base)


# -- star switchers ------------------------------------------------------------


def build_bipartite_degree_star_switcher(f: Graph, v: int) -> CertifiedSwitcher:
    """Bipartite pattern route: delete the edges at v, add a fresh twin v';
    the two certificates are the two single pattern copies through v and v'.
    Width-0 compression onto the 3-vertex path."""
    sides = f.bipartition()
    if sides is None:
        raise DomainError("pattern must be bipartite for this route")
    a_side = sides[0] if v in sides[0] else sides[1]
    leaves = sorted(f.adj[v])

    space = GadgetSpace(f)
    # pattern vertices keep their ids; the edges at v are the switched ones
    space.place(f.without_edges([(v, u) for u in leaves]), {})
    vprime = space.fresh_one()
    space.record("cert1", range(f.n))
    space.record("cert2", [vprime if x == v else x for x in range(f.n)])

    e1 = [(v, u) for u in leaves]
    e2 = [(vprime, u) for u in leaves]
    roots = leaves + [v, vprime]
    psi = [0] * space.n
    for x in range(f.n):
        psi[x] = 0 if x in a_side else 1
    psi[v] = 0
    psi[vprime] = 2
    base = Compression(3, P2, tuple(psi), 0)
    return _finalize_switcher(space, roots, e1, e2, base)


def build_clique_degree_star_switcher(f: Graph, v: int) -> CertifiedSwitcher:
    """General pattern route: keep pattern-minus-v, join two fresh centres to
    its old neighbourhood, and bridge each leaf pair with a 4-cycle switcher.
    Width chi+1."""
    r = f.degree(v)
    nbrs = sorted(f.adj[v])
    fm = f.without_vertices([v])          # relabels: vertices > v shift down
    down = lambda x: x - 1 if x > v else x

    space = GadgetSpace(f)
    fm_ids = space.place(fm, {})
    plus = space.fresh_one()
    minus = space.fresh_one()
    leaves = space.fresh(r)
    w = [fm_ids[down(x)] for x in nbrs]   # images of the old neighbourhood
    for wi in w:
        space.add_edge(plus, wi)          # D+
        space.add_edge(minus, wi)         # D-

    # gadget+E+ = (pattern at plus) + each bridge switched to {w_i-, leaf_i+}
    for side, centre in (("cert1", plus), ("cert2", minus)):
        space.record(side, [centre if x == v else fm_ids[down(x)]
                            for x in range(f.n)])
    chi, col = chi_colouring(f)
    colour_node = renumber(col, {col[v]: 3}, 4)
    c4 = build_c4_switcher(f)
    # each bridge's 4-cycle roots (plus, w_i, minus, leaf_i) land on the K
    # nodes (0, colour(w_i), 2, 1)
    for i in range(r):
        space.glue(c4, (plus, w[i], minus, leaves[i]), swap=True,
                   beta={0: 0, 1: colour_node[col[nbrs[i]]], 2: 2, 3: 1})

    e1 = [(plus, leaves[i]) for i in range(r)]
    e2 = [(minus, leaves[i]) for i in range(r)]
    roots = leaves + [plus, minus]

    # base compression: the path plus a clique on the colour nodes, the path
    # ends joined to every colour node except v's colour
    extra = chi
    kn = 3 + extra
    k_edges = set(P2.edges)
    for a in range(3, kn):
        for b in range(a + 1, kn):
            k_edges.add((a, b))
    for a in range(4, kn):            # colour node of v (index 3) stays off
        k_edges.add((0, a))
        k_edges.add((2, a))
    kg = Graph(kn, k_edges)
    # -1 slots belong to glued bridge interiors; their compressions fill them
    psi = [-1] * space.n
    for x in range(f.n):
        if x != v:
            psi[fm_ids[down(x)]] = colour_node[col[x]]
    psi[plus] = 0
    psi[minus] = 2
    for i in range(r):
        psi[leaves[i]] = 1
    base = Compression(3, kg, tuple(psi), chi + 1)
    return _finalize_switcher(space, roots, e1, e2, base)


def _degree_multiset_split(degrees: list[int], target: int,
                           guard: int = 4000) -> tuple[list[int], list[int]]:
    """Multisets V1, V2 of degree values with sum(V2) - sum(V1) = target,
    found by breadth-first search over reachable totals."""
    values = sorted(set(degrees))
    seen = {0: None}
    frontier = deque([0])
    bound = target + 2 * max(values) * max(values) + 4 * max(values)
    while frontier:
        cur = frontier.popleft()
        if cur == target:
            break
        for d in values:
            for step in (d, -d):
                nxt = cur + step
                if -bound <= nxt <= bound and nxt not in seen:
                    seen[nxt] = (cur, step)
                    frontier.append(nxt)
        if len(seen) > guard:
            raise ResourceError("degree multiset search guard exceeded")
    if target not in seen:
        raise DomainError(f"target {target} unreachable from degrees {values}")
    plus, minus = [], []
    cur = target
    while seen[cur] is not None:
        prev, step = seen[cur]
        (plus if step > 0 else minus).append(abs(step))
        cur = prev
    return minus, plus     # (V1, V2): sum(V2) - sum(V1) = target


def build_k2r_switcher(f: Graph, r: int) -> CertifiedSwitcher:
    """Star switcher with r leaves and two centres.

    The pattern degree gcd must divide r.  If r is itself a vertex degree,
    a single degree switcher does it; otherwise a double star on a vertex
    multiset reduces r to available degrees.  Bipartite patterns get the
    width-0 route, everything else the clique-glued route.
    """
    if f.e < 1:
        raise InputError("pattern needs at least one edge")
    g = degree_gcd_of(f)
    if r < 1 or r % g:
        raise DomainError(f"degree gcd {g} does not divide {r}")
    bip = f.is_bipartite()

    def degree_switcher(d: int) -> CertifiedSwitcher:
        v = min(x for x in range(f.n) if f.degree(x) == d)
        if bip:
            return build_bipartite_degree_star_switcher(f, v)
        return build_clique_degree_star_switcher(f, v)

    degs = sorted({d for d in f.degrees() if d})
    if r in degs:
        return degree_switcher(r)

    # double-star reduction: W carries sum(V1) shared leaves; the leaf roots
    # u_1..u_r enter only through the V2 stars
    v1, v2 = _degree_multiset_split(degs, r)
    space = GadgetSpace(f)
    leaves = space.fresh(r)
    plus = space.fresh_one()
    minus = space.fresh_one()
    w = space.fresh(sum(v1))
    for x in w:
        space.add_edge(plus, x)
        space.add_edge(minus, x)

    pool2 = w + leaves       # partitioned among the V2 stars
    pool1 = list(w)          # partitioned among the V1 stars
    subs = []
    i2 = i1 = 0
    for d in v2:
        grp = pool2[i2:i2 + d]
        i2 += d
        subs.append(("v2", d, grp))
    for d in v1:
        grp = pool1[i1:i1 + d]
        i1 += d
        subs.append(("v1", d, grp))
    assert i2 == len(pool2) and i1 == len(pool1)

    base_psi = [-1] * space.n
    for x in leaves:
        base_psi[x] = 1
    for x in w:
        base_psi[x] = 1
    base_psi[plus] = 0
    base_psi[minus] = 2
    base = Compression(3, P2, tuple(base_psi), 0)

    for side, d, grp in subs:
        sub = degree_switcher(d)
        # gadget+E+ uses: V2 stars switched to plus, V1 stars to minus
        space.glue(sub, tuple(grp) + (plus, minus), swap=side == "v1",
                   beta={0: 0, 1: 1, 2: 2})

    e1 = [(plus, x) for x in leaves]
    e2 = [(minus, x) for x in leaves]
    return _finalize_switcher(space, leaves + [plus, minus], e1, e2, base)


# -- six-cycle switcher (clique-glued route) -----------------------------------


def build_c6_switcher_general(f: Graph) -> CertifiedSwitcher:
    """Glue four 4-cycle switchers onto a 5-edge frame over two middle
    vertices; works for every pattern with at least two edges."""
    if f.e < 2:
        raise InputError("pattern needs at least two edges")
    space = GadgetSpace(f)
    u = space.fresh(6)           # u[0..5] are u1..u6
    w1 = space.fresh_one()
    w2 = space.fresh_one()
    frame = [(u[0], w1), (u[4], w1), (u[1], w2), (u[3], w2), (w1, w2)]
    for e in frame:
        space.add_edge(*e)

    # gadget + {u1u2, u3u4, u5u6} splits along each bridge's first switch;
    # each beta sends the bridge's roots to their K nodes, u_i to i-1 and
    # w1, w2 to 6, 7
    c4 = build_c4_switcher(f)
    space.glue(c4, (u[0], w1, u[4], u[5]), beta={0: 0, 1: 6, 2: 4, 3: 5})
    space.glue(c4, (w2, u[1], u[2], u[3]), beta={0: 7, 1: 1, 2: 2, 3: 3})
    space.glue(c4, (u[0], u[1], w2, w1), beta={0: 0, 1: 1, 2: 7, 3: 6})
    space.glue(c4, (w2, u[3], u[4], w1), beta={0: 7, 1: 3, 2: 4, 3: 6})

    e1 = [(u[0], u[1]), (u[2], u[3]), (u[4], u[5])]
    e2 = [(u[1], u[2]), (u[3], u[4]), (u[5], u[0])]

    # base compression: the 6-cycle of roots plus two joined middle nodes
    c6 = Graph(8, [(i, (i + 1) % 6) for i in range(6)] +
               [(0, 6), (4, 6), (1, 7), (3, 7), (6, 7)])
    psi = [-1] * space.n
    for i in range(6):
        psi[u[i]] = i
    psi[w1], psi[w2] = 6, 7
    base = Compression(6, c6, tuple(psi), 3)
    return _finalize_switcher(space, tuple(u), e1, e2, base)


# -- teleporters ----------------------------------------------------------------


P1 = Graph(2, [(0, 1)])
TWO_P1 = Graph(4, [(0, 1), (2, 3)])


def build_internal_teleporter(f: Graph) -> CertifiedSwitcher:
    """Single-edge switcher between {u1u2} and {u3u4} staying inside one
    bipartition pair; needs a bipartite pattern with degree gcd 1."""
    g = degree_gcd_of(f)
    if not f.is_bipartite():
        raise DomainError("internal teleporter needs a bipartite pattern")
    if g != 1:
        raise DomainError(f"internal teleporter needs degree gcd 1, got {g}")
    space = GadgetSpace(f)
    u = space.fresh(4)
    w = space.fresh_one()
    space.add_edge(u[1], w)
    space.add_edge(w, u[3])

    k21 = build_k2r_switcher(f, 1)
    # star roots of a 1-leaf switcher: (leaf, centre+, centre-); cert1
    # covers u1u2, u2w and wu4, cert2 covers wu2, u4w and u3u4; each beta
    # sends the star path (plus, leaf, minus) onto the edge
    space.glue(k21, (u[1], u[0], w), beta={0: 0, 1: 1, 2: 0})
    space.glue(k21, (w, u[1], u[3]), beta={0: 1, 1: 0, 2: 1})
    space.glue(k21, (u[3], w, u[2]), beta={0: 0, 1: 1, 2: 0})

    psi = [-1] * space.n
    psi[u[0]] = psi[u[2]] = 0
    psi[u[1]] = psi[u[3]] = 1
    psi[w] = 0
    base = Compression(2, P1, tuple(psi), 0)
    return _finalize_switcher(space, tuple(u), [(u[0], u[1])],
                              [(u[2], u[3])], base)


def _component_multiset_split(counts: list[int], guard: int = 4000):
    """Disjoint multisets M1, M2 of component indices with
    1 + sum(e over M1) = sum(e over M2)."""
    values = sorted(set(counts))
    idx_of = {}
    for i, c in enumerate(counts):
        idx_of.setdefault(c, i)
    minus, plus = _degree_multiset_split(values, 1, guard=guard)
    return [idx_of[c] for c in minus], [idx_of[c] for c in plus]


def build_external_teleporter(f: Graph) -> CertifiedSwitcher:
    """Single-edge switcher between {u1u2} and {u3u4} across bipartition
    pairs; needs a bipartite pattern whose component edge counts are coprime.

    Two component multisets whose edge totals differ by exactly one anchor
    the moved edge; internal teleporters pair up all remaining edges between
    the light and heavy sides.
    """
    if not f.is_bipartite():
        raise DomainError("external teleporter needs a bipartite pattern")
    comps = f.components()
    counts = [len(f.induced_edges(c)) for c in comps]
    tt = reduce(gcd, [c for c in counts if c], 0)
    if tt != 1:
        raise DomainError(
            f"component edge counts have gcd {tt}; teleporter needs 1")
    m1_idx, m2_idx = _component_multiset_split([c for c in counts if c])
    occ = [(ci, 1) for ci in m1_idx] + [(ci, 2) for ci in m2_idx]
    sides = f.bipartition()
    colour = lambda x: 0 if x in sides[0] else 1

    space = GadgetSpace(f)
    u = space.fresh(4)
    star_occ = next(i for i, (_, side) in enumerate(occ) if side == 2)
    anchor_comp = occ[star_occ][0]
    vw = min(f.induced_edges(comps[anchor_comp]))
    v0, w0 = (vw if colour(vw[0]) == 0 else (vw[1], vw[0]))

    def place(vs, pins):
        """Place the pattern's subgraph induced on `vs`; its map from
        pattern vertices to space ids."""
        vs = sorted(vs)
        got = space.place(f.induced(vs), {i: pins[x] for i, x in enumerate(vs)
                                          if x in pins})
        return dict(zip(vs, got))

    # per occurrence: plus and minus copies of its component, plus a copy of
    # the rest of the pattern (shared by both certificate sides)
    pieces = []
    e_plus = {1: [], 2: []}
    e_minus = {1: [], 2: []}
    for i, (ci, side) in enumerate(occ):
        cvs = comps[ci]
        rest = [x for x in range(f.n) if x not in set(cvs)]
        if i == star_occ:
            pmap = place(cvs, {v0: u[0], w0: u[1]})
            mmap = place(cvs, {v0: u[2], w0: u[3]})
        else:
            pmap = place(cvs, {})
            mmap = place(cvs, {})
        zmap = place(rest, {})
        pieces.append((ci, side, pmap, mmap, zmap))
        for x, y in sorted(f.induced_edges(cvs)):
            if i == star_occ and norm_edge(x, y) == norm_edge(*vw):
                continue
            xo, yo = (x, y) if colour(x) == 0 else (y, x)
            e_plus[side].append((pmap[xo], pmap[yo]))
            e_minus[side].append((mmap[xo], mmap[yo]))
    assert len(e_plus[1]) == len(e_plus[2])
    assert len(e_minus[1]) == len(e_minus[2])

    # a teleporter's cert1 covers its light edge, its cert2 the heavy one
    tel = build_internal_teleporter(f)
    for (x, y), (x2, y2) in zip(e_plus[1], e_plus[2]):
        space.glue(tel, (x, y, x2, y2), beta={0: 0, 1: 1})
    for (x, y), (x2, y2) in zip(e_minus[1], e_minus[2]):
        space.glue(tel, (x, y, x2, y2), swap=True, beta={0: 2, 1: 3})

    def record_copy(tag, vmap_pairs):
        """One pattern copy assembled from per-vertex maps."""
        img = [None] * f.n
        for vmap in vmap_pairs:
            for x, gx in vmap.items():
                img[x] = gx
        space.record(tag, img)

    # gadget + {u1u2}: the anchor closes on the plus side, light occurrences
    # close on minus, heavy ones on plus; the teleporters above absorb the
    # light plus edges and the heavy minus edges
    for i, (ci, side, pmap, mmap, zmap) in enumerate(pieces):
        if i == star_occ:
            record_copy("cert1", (pmap, zmap))
            record_copy("cert2", (mmap, zmap))
        elif side == 1:
            record_copy("cert1", (mmap, zmap))
            record_copy("cert2", (pmap, zmap))
        else:
            record_copy("cert1", (pmap, zmap))
            record_copy("cert2", (mmap, zmap))

    psi = [-1] * space.n
    for (ci, side, pmap, mmap, zmap) in pieces:
        for x, gx in pmap.items():
            psi[gx] = colour(x)
        for x, gx in zmap.items():
            psi[gx] = colour(x)
        for x, gx in mmap.items():
            psi[gx] = 2 + colour(x)
    base = Compression(4, TWO_P1, tuple(psi), 0)
    return _finalize_switcher(space, tuple(u), [(u[0], u[1])],
                              [(u[2], u[3])], base)


def build_teleporter(f: Graph, mode: str) -> CertifiedSwitcher:
    if mode == "internal":
        return build_internal_teleporter(f)
    if mode == "external":
        return build_external_teleporter(f)
    raise InputError(f"unknown teleporter mode {mode!r}")
