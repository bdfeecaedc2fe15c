import hashlib

import pytest

from decomplab.errors import DomainError, InputError
from decomplab.gadgets.absorbers import (build_absorber,
                                         build_partite_neighbourhood_absorber,
                                         _glue_rotated_copies, _shapes)
from decomplab.gadgets.bipartite_c6 import (build_c6_switcher,
                                            build_c6_switcher_bipartite)
from decomplab.gadgets.switchers import build_c6_switcher_general
from decomplab.gadgets.transformers import build_transformer
from decomplab.gadgets.types import (verify_absorber, verify_compression,
                                     verify_star_cover, verify_switcher,
                                     verify_transformer)
from decomplab.graphs import (Graph, GraphMap, complete_graph,
                              complete_bipartite, cycle_graph, disjoint_union,
                              path_graph)

K3 = complete_graph(3)
C4 = cycle_graph(4)


# -- bipartite six-cycle switcher ------------------------------------------------


@pytest.mark.parametrize("f", [path_graph(2), cycle_graph(6),
                               complete_bipartite(2, 3)])
def test_bipartite_c6_switcher(f):
    sw = build_c6_switcher_bipartite(f)
    ok, why = verify_switcher(sw)
    assert ok, why
    ok, why = verify_compression(sw.model, sw.compression)
    assert ok, why
    assert sw.compression.d == 0
    # the compression IS a homomorphism onto the 6-cycle
    assert sw.compression.k.n == 6


def test_bipartite_c6_rejects_tau_two():
    with pytest.raises(DomainError):
        build_c6_switcher_bipartite(C4)      # tau = 2


def test_bipartite_c6_rejects_nonbipartite():
    with pytest.raises(DomainError):
        build_c6_switcher_bipartite(K3)


@pytest.mark.parametrize("f, route, vertices, width", [
    (path_graph(2), build_c6_switcher_bipartite, 16, 0),
    (C4, build_c6_switcher_general, 40, 3),          # tau = 2
    (K3, build_c6_switcher_general, 20, 4),          # not bipartite
    # 25 vertices: past the bipartite route's subset scan guard
    (path_graph(24), build_c6_switcher_general, 2308, 3),
], ids=["P2", "C4", "K3", "P24"])
def test_c6_switcher_takes_the_bipartite_route_where_tau_is_one(
        f, route, vertices, width):
    sw = build_c6_switcher(f)
    ok, why = verify_switcher(sw)
    assert ok, why
    assert (sw.model.graph.n, sw.compression.d) == (vertices, width)
    assert sw.model.graph == route(f).model.graph


# -- transformers ------------------------------------------------------------------


def test_transformer_triangle_pattern():
    h = cycle_graph(3)
    tr = build_transformer(K3, h, GraphMap(h, cycle_graph(3), (0, 1, 2)))
    ok, why = verify_transformer(tr)
    assert ok, why


def test_transformer_figure_instance():
    # 4-cycle pattern, five-cycle leftover: five 6-cycle switchers and five
    # two-leaf star switchers
    h = cycle_graph(5)
    tr = build_transformer(C4, h, GraphMap(h, cycle_graph(5), (0, 1, 2, 3, 4)))
    ok, why = verify_transformer(tr)
    assert ok, why


def test_transformer_fold_map():
    # C6 wound twice round C3 is a homomorphism onto a 2-regular leftover of
    # K3's degree gcd, but it maps two edges onto each triangle edge, so the
    # builder must reject it as not edge-bijective
    fold = GraphMap(cycle_graph(6), cycle_graph(3), (0, 1, 2, 0, 1, 2))
    assert fold.is_homomorphism() and not fold.is_edge_bijective()
    with pytest.raises(DomainError, match="edge-bijective"):
        build_transformer(K3, cycle_graph(6), fold)


def test_transformer_rejects_bad_phi():
    h = cycle_graph(3)
    bad = GraphMap(h, cycle_graph(3), (0, 1, 1))  # not a homomorphism
    with pytest.raises(DomainError):
        build_transformer(K3, h, bad)


def test_transformer_rejects_a_map_of_another_leftover():
    phi = GraphMap(cycle_graph(4), cycle_graph(4), (0, 1, 2, 3))
    with pytest.raises(InputError, match="given leftover"):
        build_transformer(C4, cycle_graph(5), phi)


def test_transformer_nontrivial_edge_bijection():
    # C6 folds edge-bijectively onto a doubled path? no; use two disjoint
    # triangles mapping onto ... keep it honest: relabelled C5 image
    h = cycle_graph(5)
    perm = (2, 3, 4, 0, 1)
    hp = cycle_graph(5).relabel(list(perm))
    tr = build_transformer(C4, h, GraphMap(h, hp, perm))
    ok, why = verify_transformer(tr)
    assert ok, why


def test_transformer_does_not_hide_a_bipartite_switcher_defect(monkeypatch):
    # P2 takes the bipartite six-cycle route; a defect there must surface,
    # not fall back to the general switcher
    from decomplab.gadgets import bipartite_c6

    def broken(f):
        raise AssertionError("defect in the bipartite route")

    monkeypatch.setattr(bipartite_c6, "build_c6_switcher_bipartite", broken)
    h = Graph(2, [(0, 1)])
    with pytest.raises(AssertionError, match="bipartite route"):
        build_transformer(path_graph(2), h, GraphMap(h, h, (0, 1)))


# -- absorbers ----------------------------------------------------------------------


def test_absorber_triangle_leftover():
    ab = build_absorber(K3, cycle_graph(3))
    ok, why = verify_absorber(ab)
    assert ok, why


def test_absorber_empty_leftover():
    ab = build_absorber(K3, Graph(0, []))
    assert ab.a.e == 0 and not ab.h_edges
    ok, why = verify_absorber(ab)
    assert ok, why


def test_absorber_rejects_undivisible():
    with pytest.raises(DomainError):
        build_absorber(K3, path_graph(3))   # odd degrees


def test_absorber_c4_pattern():
    ab = build_absorber(C4, cycle_graph(4))
    ok, why = verify_absorber(ab)
    assert ok, why


def test_bouquet_counts():
    # four triangle copies with a cut edge share one subdivision hub
    _, to_loop, _ = _shapes(K3, C4, (0, 1), 2)
    assert to_loop.target.n == 13 and to_loop.target.e == 16


# -- colour rotation -------------------------------------------------------------


def rotated(f, v, c):
    """s - 1 copies of f glued at v, the first s - 1 colour classes rotated
    between them, where c colours v with the last colour s."""
    s = max(c.values())
    g, hub, col, _ = _glue_rotated_copies(f, [v] * (s - 1), [c] * (s - 1), s,
                                          rotate=True)
    return g, hub, col


def test_rotate_triangle():
    g, hub, col = rotated(K3, 0, {0: 4, 1: 1, 2: 3})
    assert g.n == 7
    counts = [sum(1 for y in g.adj[hub] if col[y] == i) for i in (1, 2, 3)]
    assert counts == [2, 2, 2]


def test_rotate_single_edge():
    g, hub, col = rotated(path_graph(1), 0, {0: 2, 1: 1})
    assert g.n == 2
    assert sum(1 for y in g.adj[hub] if col[y] == 1) == 1


def test_rotate_properness_random_bipartite():
    import random
    rng = random.Random(3)
    for _ in range(5):
        s, t = rng.randint(1, 3), rng.randint(1, 3)
        f = complete_bipartite(s, t)
        c = {v: (3 if v == 0 else (1 if v < s else 2)) for v in range(f.n)}
        g, hub, col = rotated(f, 0, c)
        assert all(col[a] != col[b] for a, b in g.edges)


# -- partite neighbourhood absorber ---------------------------------------------


@pytest.mark.parametrize("f,b", [(K3, 1), (K3, 2), (complete_graph(4), 1),
                                 (C4, 1)])
def test_partite_absorber(f, b):
    pa = build_partite_neighbourhood_absorber(f, b)
    ok, why = verify_star_cover(f, pa.graph, pa.x, pa.cover_plain)
    assert ok, why
    host_plus = Graph(pa.graph.n, pa.graph.edges |
                      {tuple(sorted((pa.x, w))) for w in pa.w})
    ok, why = verify_star_cover(f, host_plus, pa.x, pa.cover_with_w)
    assert ok, why
    # the bundle and the centre stay independent in the gadget
    assert all(not pa.graph.has_edge(pa.x, w) for w in pa.w)
    assert not any(u in pa.w and v in pa.w for u, v in pa.graph.edges)
    # colouring is proper and the bundle sits in class 1
    assert all(pa.colouring[u] != pa.colouring[v] for u, v in pa.graph.edges)
    assert all(pa.colouring[w] == 1 for w in pa.w)
    from functools import reduce
    from math import gcd
    r = reduce(gcd, [d for d in f.degrees() if d], 0)
    assert len(pa.w) == b * r


K4_MINUS_E = complete_graph(4).without_edges([(2, 3)])


@pytest.mark.parametrize("f, b, vertices, digest", [
    (K3, 1, 21, "eefd3bdce2660850"),
    (K3, 2, 29, "107d9a6f6eafaf6e"),
    # chi = 3 and theta = 1: the hub graph joins copies at several vertices
    (K4_MINUS_E, 1, 10, "ad1120c5bf82a8f3"),
    (Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2)]), 3, 10, "0f498a4df24d7092"),
    (complete_graph(4), 1, 64, "b98373ab6c96fb5e"),
    # an odd cycle: the bundle is x's whole star in its one copy, so no hub
    # graph is glued and the plain cover is empty
    (cycle_graph(5), 1, 5, "0197d1f2b1730085"),
])
def test_partite_absorber_is_golden(f, b, vertices, digest):
    """Pinned by its vertex count and a digest of its edges, colouring,
    centre, bundle and both covers' images, all sorted; each cover's target
    is the edges of its images, and both covers pass the star-cover
    verifier."""
    pa = build_partite_neighbourhood_absorber(f, b)
    assert verify_star_cover(f, pa.graph, pa.x, pa.cover_plain) == (True, None)
    assert verify_star_cover(f, pa.cover_with_w.host, pa.x,
                             pa.cover_with_w) == (True, None)
    key = (sorted(pa.graph.edges), sorted(pa.colouring.items()), pa.x, pa.w,
           sorted(c.image for c in pa.cover_plain.copies),
           sorted(c.image for c in pa.cover_with_w.copies))
    assert pa.graph.n == vertices
    assert hashlib.sha256(repr(key).encode()).hexdigest()[:16] == digest
    for cover in (pa.cover_plain, pa.cover_with_w):
        assert cover.target_edges == frozenset().union(
            *[c.edge_image() for c in cover.copies])
