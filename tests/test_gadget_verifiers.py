"""Every gadget verifier and the star-cover verifier refuse a damaged
certificate: a host with an extra edge, a dropped copy, a copy of another
pattern; a star cover also an uncovered star edge and two copies that share
an edge."""

from dataclasses import replace
from itertools import combinations

import pytest

from decomplab.gadgets.absorbers import (build_absorber,
                                         build_partite_neighbourhood_absorber)
from decomplab.gadgets.switchers import build_c4_switcher
from decomplab.gadgets.transformers import build_transformer
from decomplab.gadgets.types import (verify_absorber, verify_star_cover,
                                     verify_switcher, verify_transformer)
from decomplab.graphs import (Decomposition, EmbeddedCopy, Graph, GraphMap,
                              complete_graph, cycle_graph)
from decomplab.solver import cover_vertex

K3 = complete_graph(3)
C3 = cycle_graph(3)


def _extra_host_edge(dec):
    """The same copies and target on a host with one more edge."""
    extra = next(e for e in combinations(range(dec.host.n), 2)
                 if e not in dec.host.edges)
    return Decomposition(dec.host.with_edges([extra]), dec.target_edges,
                         list(dec.copies))


def _dropped_copy(dec):
    return Decomposition(dec.host, dec.target_edges, dec.copies[:-1])


def _other_pattern(dec):
    """The last copy's image read as a copy of the pattern minus an edge."""
    p = dec.pattern
    last = EmbeddedCopy(Graph(p.n, sorted(p.edges)[1:]), dec.copies[-1].image)
    return Decomposition(dec.host, dec.target_edges, dec.copies[:-1] + [last])


GADGETS = {
    "switcher": (lambda: build_c4_switcher(K3), verify_switcher,
                 ("cert1", "cert2")),
    "transformer": (lambda: build_transformer(K3, C3, GraphMap(C3, C3,
                                                               (0, 1, 2))),
                    verify_transformer, ("cert_h", "cert_hp")),
    "absorber": (lambda: build_absorber(K3, C3), verify_absorber,
                 ("cert_a", "cert_ah")),
}


@pytest.mark.parametrize("damage", [_extra_host_edge, _dropped_copy,
                                    _other_pattern])
@pytest.mark.parametrize("kind, side", [(k, i) for k in GADGETS
                                        for i in range(2)])
def test_a_gadget_verifier_refuses_a_damaged_side(kind, side, damage):
    build, verify, fields = GADGETS[kind]
    gadget = build()
    assert verify(gadget) == (True, None)
    name = fields[side]
    ok, why = verify(replace(gadget, **{name: damage(getattr(gadget, name))}))
    assert not ok and why.startswith(name), why


def _covers():
    """(pattern, host, x, cover) for star covers that their verifier
    accepts, on hosts with non-edges."""
    host = complete_graph(7).without_edges([(5, 6)])
    yield K3, host, 0, cover_vertex(K3, host, 0).decomposition
    pa = build_partite_neighbourhood_absorber(K3, 1)
    yield K3, pa.graph, pa.x, pa.cover_plain
    yield K3, pa.cover_with_w.host, pa.x, pa.cover_with_w


def _uncovered_star_edge(dec):
    """One copy dropped together with its edges."""
    return Decomposition(dec.host,
                         dec.target_edges - dec.copies[-1].edge_image(),
                         dec.copies[:-1])


def _shared_edge(dec):
    return Decomposition(dec.host, dec.target_edges,
                         dec.copies + [dec.copies[0]])


@pytest.mark.parametrize("damage, expect", [
    (_extra_host_edge, "different host"),
    (_dropped_copy, "uncovered edge"),
    (_other_pattern, "different pattern"),
    (_uncovered_star_edge, "star edge"),
    (_shared_edge, "covered twice"),
])
def test_the_star_cover_verifier_refuses_a_damaged_cover(damage, expect):
    for pattern, host, x, cover in _covers():
        assert verify_star_cover(pattern, host, x, cover) == (True, None)
        ok, why = verify_star_cover(pattern, host, x, damage(cover))
        assert not ok and expect in why, why


def test_a_star_cover_of_another_host_is_refused():
    pa = build_partite_neighbourhood_absorber(K3, 1)
    ok, why = verify_star_cover(K3, pa.graph, pa.x, pa.cover_with_w)
    assert (ok, why) == (False, "cover has a different host")


@pytest.mark.parametrize("x", [7, -7])
def test_a_star_cover_of_an_out_of_range_vertex_is_refused(x):
    host = complete_graph(7)
    cover = cover_vertex(K3, host, 0).decomposition
    assert verify_star_cover(K3, host, x, cover) == (
        False, "vertex x out of range")
