from dataclasses import replace

import pytest

from decomplab.errors import DomainError, InputError
from decomplab.graphs import (Graph, complete_graph, complete_bipartite,
                              cycle_graph, path_graph, disjoint_union)
from decomplab.gadgets.compose import GadgetSpace
from decomplab.gadgets.switchers import (build_c4_switcher,
                                         build_c6_switcher_general,
                                         build_k2r_switcher,
                                         build_teleporter)
from decomplab.gadgets.types import (verify_compression, verify_switcher,
                                     CertifiedSwitcher, RootedModel)
from decomplab.invariants import chromatic_number, rooted_degeneracy

K3 = complete_graph(3)
C4 = cycle_graph(4)


def assert_good_switcher(sw, expect_d=None):
    ok, why = verify_switcher(sw)
    assert ok, why
    # definition is symmetric in the two switch sets
    ok, why = verify_switcher(CertifiedSwitcher(
        sw.model, sw.e2, sw.e1, sw.cert2, sw.cert1, sw.compression))
    assert ok, why
    ok, why = verify_compression(sw.model, sw.compression)
    assert ok, why
    if expect_d is not None:
        assert sw.compression.d == expect_d


# -- 4-cycle switchers -----------------------------------------------------------


def test_c4_switcher_triangle():
    sw = build_c4_switcher(K3)
    assert sw.model.graph.n == 7          # (|F|-1)^2 + 3
    assert_good_switcher(sw, expect_d=chromatic_number(K3) + 1)


def test_c4_switcher_c4_pattern():
    sw = build_c4_switcher(C4)
    assert sw.model.graph.n == 12
    assert_good_switcher(sw, expect_d=3)


def test_c4_switcher_various_patterns():
    for f in (path_graph(2), complete_graph(4), complete_bipartite(2, 3),
              Graph(4, [(0, 1), (1, 2), (2, 3), (0, 2)])):
        assert_good_switcher(build_c4_switcher(f),
                             expect_d=chromatic_number(f) + 1)


def test_c4_switcher_compression_underclaim_fails():
    sw = build_c4_switcher(K3)
    comp = sw.compression
    d, _ = rooted_degeneracy(comp.k, range(comp.j_size))
    comp.d = d - 1
    ok, why = verify_compression(sw.model, comp)
    assert not ok and "degeneracy" in why


@pytest.mark.parametrize("value", [10, -1, 2.5])
def test_compression_refuses_psi_outside_k(value):
    # an isolated model vertex meets no edge, so only the range check sees it
    sw = build_c4_switcher(K3)
    comp = sw.compression
    assert comp.k.n == 5
    m = RootedModel(Graph(sw.model.graph.n + 1, sw.model.graph.edges),
                    sw.model.roots)
    ok, why = verify_compression(m, replace(comp, psi=comp.psi + (0,)))
    assert ok, why
    ok, why = verify_compression(m, replace(comp, psi=comp.psi + (value,)))
    assert not ok and "outside V(K)" in why


@pytest.mark.parametrize("image", [4, 2], ids=["outside-J", "J-node-missed"])
def test_compression_refuses_roots_not_onto_j(image):
    # the K3 switcher's roots map onto J = {0, 1, 2, 3}; K's node 4 is a
    # colour node, and sending the first root to 2 leaves node 0 unhit
    sw = build_c4_switcher(K3)
    comp = sw.compression
    assert comp.j_size == 4
    psi = list(comp.psi)
    psi[sw.model.roots[0]] = image
    ok, why = verify_compression(sw.model, replace(comp, psi=tuple(psi)))
    assert not ok and "roots" in why


def test_switcher_tamper_detection():
    sw = build_c4_switcher(K3)
    swapped_certs = CertifiedSwitcher(sw.model, sw.e1, sw.e2,
                                      sw.cert2, sw.cert1, sw.compression)
    ok, why = verify_switcher(swapped_certs)
    assert not ok


# -- star switchers ---------------------------------------------------------------


def test_k2r_bipartite_direct():
    # 4-cycle pattern, two leaves: gadget is the pattern minus a vertex's
    # edges plus a twin; both certificates are single copies
    sw = build_k2r_switcher(C4, 2)
    assert_good_switcher(sw, expect_d=0)
    assert len(sw.cert1.copies) == 1 and len(sw.cert2.copies) == 1


def test_k2r_triangle_degree_route():
    sw = build_k2r_switcher(K3, 2)
    assert_good_switcher(sw, expect_d=chromatic_number(K3) + 1)


def test_k2r_triangle_multiset_route():
    sw = build_k2r_switcher(K3, 4)
    assert_good_switcher(sw)
    assert len(sw.e1) == 4


def test_k2r_gcd_precondition():
    with pytest.raises(DomainError):
        build_k2r_switcher(C4, 3)


def test_k2r_k23_leaf_one():
    # K_{2,3} has degree gcd 1 but no degree-1 vertex: multiset route
    sw = build_k2r_switcher(complete_bipartite(2, 3), 1)
    assert_good_switcher(sw, expect_d=0)


# -- 6-cycle switcher (general route) ----------------------------------------------


def test_c6_general_triangle():
    sw = build_c6_switcher_general(K3)
    assert_good_switcher(sw, expect_d=4)
    assert len(sw.e1) == 3 and len(sw.e2) == 3


def test_c6_general_c4_pattern():
    sw = build_c6_switcher_general(C4)
    assert_good_switcher(sw, expect_d=3)


# -- teleporters ---------------------------------------------------------------------


def test_internal_teleporter_path():
    sw = build_teleporter(path_graph(2), "internal")
    assert_good_switcher(sw, expect_d=0)
    assert len(sw.e1) == 1 and len(sw.e2) == 1


def test_external_teleporter_k2_plus_path():
    f = disjoint_union(Graph(2, [(0, 1)]), path_graph(2))
    sw = build_teleporter(f, "external")
    assert_good_switcher(sw, expect_d=0)


def test_external_teleporter_bigger_mix():
    # components with 2 and 3 edges: gcd 1, teleporters actually appear
    f = disjoint_union(path_graph(2), path_graph(3))
    sw = build_teleporter(f, "external")
    assert_good_switcher(sw, expect_d=0)


def test_teleporter_rejections():
    c6 = cycle_graph(6)
    with pytest.raises(DomainError):
        build_teleporter(c6, "internal")   # degree gcd 2
    with pytest.raises(DomainError):
        build_teleporter(c6, "external")   # single component, 6 edges
    with pytest.raises(DomainError):
        build_teleporter(K3, "internal")   # not bipartite


def test_place_adds_a_piece_as_one_checked_update():
    space = GadgetSpace(K3)
    space.fresh(3)
    space.add_edge(0, 1)
    vmap = space.place(path_graph(3), {0: 0, 3: 1})
    assert vmap == [0, 3, 4, 1]
    assert space.edges == {(0, 1), (0, 3), (3, 4), (1, 4)}
    assert space.n == 5
    # a path whose pinned ends share an id: the second edge repeats the first
    with pytest.raises(InputError, match=r"edge \(2, 5\) glued twice"):
        space.place(path_graph(2), {0: 2, 2: 2})
    # an edge already in the space
    space.add_edge(0, 6)
    with pytest.raises(InputError, match=r"edge \(0, 6\) glued twice"):
        space.place(Graph(2, [(0, 1)]), {0: 0})
    # a pin on the id the next fresh vertex gets
    with pytest.raises(InputError, match="gluing created a loop"):
        space.place(Graph(2, [(0, 1)]), {0: space.n})
