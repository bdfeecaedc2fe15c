"""Every gadget verifier and the star-cover verifier refuse a damaged
certificate: a host with an extra edge, a dropped copy, a copy of another
pattern; a star cover also an uncovered star edge and two copies that share
an edge.  Each structural check (roots, switch sets, compression, leftover,
pattern) refuses a gadget tampered at just that point."""

from dataclasses import replace
from itertools import combinations

import pytest

from decomplab.gadgets.absorbers import (build_absorber,
                                         build_partite_neighbourhood_absorber)
from decomplab.gadgets.switchers import build_c4_switcher
from decomplab.gadgets.transformers import build_transformer
from decomplab.errors import InputError
from decomplab.gadgets.types import (RootedModel, verify_absorber,
                                     verify_compression, verify_star_cover,
                                     verify_switcher, verify_transformer)
from decomplab.graphs import (Decomposition, EmbeddedCopy, Graph, GraphMap,
                              complete_graph, cycle_graph, norm_edge,
                              path_graph)
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


@pytest.mark.parametrize("roots, expect", [
    ((0, 1, 0), "pairwise distinct"),
    ((0, 3), "out of range"),
    ((-1, 0), "out of range"),
], ids=["repeated", "past-the-end", "negative"])
def test_a_rooted_model_refuses_bad_roots(roots, expect):
    with pytest.raises(InputError, match=expect):
        RootedModel(path_graph(2), roots)


def _roots_joined(sw):
    m = sw.model
    return replace(sw, model=RootedModel(
        m.graph.with_edges([m.roots[:2]]), m.roots))


def _off_root(sw):
    """A model vertex that is not a root."""
    return min(set(range(sw.model.graph.n)) - set(sw.model.roots))


def _with_compression(sw, **changes):
    return replace(sw, compression=replace(sw.compression, **changes))


def _psi_folding_an_edge(sw):
    """psi sends a non-root vertex onto its neighbour's image."""
    u = _off_root(sw)
    v = min(sw.model.graph.adj[u])
    psi = list(sw.compression.psi)
    psi[u] = psi[v]
    return _with_compression(sw, psi=tuple(psi))


def _leftover_on_the_gadget(gadget_edges, leftover):
    """One gadget edge more in the leftover."""
    return leftover | {min(gadget_edges)}


def _leftover_next_to_the_gadget(gadget_edges, leftover):
    """One leftover edge more, off the gadget, at a gadget neighbour of a
    leftover vertex: that gadget edge then joins two leftover vertices."""
    vs = {v for e in leftover for v in e}
    w = min(v for e in gadget_edges if len(vs.intersection(e)) == 1
            for v in e if v not in vs)
    z = min(z for z in vs if norm_edge(w, z) not in gadget_edges)
    return leftover | {norm_edge(w, z)}


_SWITCHER, _TRANSFORMER, _ABSORBER = (
    GADGETS[kind][0] for kind in ("switcher", "transformer", "absorber"))


def _compression_check(sw):
    return verify_compression(sw.model, sw.compression)


@pytest.mark.parametrize("build, verify, tamper, expect", [
    pytest.param(_SWITCHER, verify_switcher, _roots_joined,
                 "roots not independent", id="switcher-roots-joined"),
    pytest.param(_SWITCHER, verify_switcher, lambda sw: replace(
        sw, e1=sw.e1 | {(_off_root(sw), sw.model.roots[0])}),
        "not on roots", id="switcher-e1-edge-off-the-roots"),
    pytest.param(_SWITCHER, verify_switcher, lambda sw: replace(
        sw, e2=sw.e2 | {min(sw.e1)}), "intersect",
        id="switcher-e1-meets-e2"),
    pytest.param(_SWITCHER, _compression_check, lambda sw: _with_compression(
        sw, j_size=sw.compression.k.n + 1), "J larger than K",
        id="compression-j-larger-than-k"),
    pytest.param(_SWITCHER, _compression_check, lambda sw: _with_compression(
        sw, psi=sw.compression.psi[:-1]), "every model vertex",
        id="compression-psi-too-short"),
    pytest.param(_SWITCHER, _compression_check, _psi_folding_an_edge,
                 "homomorphism violated", id="compression-psi-folds-an-edge"),
    pytest.param(_TRANSFORMER, verify_transformer, lambda tr: replace(
        tr, hp_edges=_leftover_on_the_gadget(tr.t.edges, tr.hp_edges)),
        "overlap", id="transformer-leftover-on-the-gadget"),
    pytest.param(_TRANSFORMER, verify_transformer, lambda tr: replace(
        tr, hp_edges=_leftover_next_to_the_gadget(tr.t.edges, tr.hp_edges)),
        "not independent", id="transformer-leftover-not-independent"),
    pytest.param(_ABSORBER, verify_absorber, lambda ab: replace(
        ab, h_edges=_leftover_on_the_gadget(ab.a.edges, ab.h_edges)),
        "overlap", id="absorber-leftover-on-the-gadget"),
    pytest.param(_ABSORBER, verify_absorber, lambda ab: replace(
        ab, h_edges=_leftover_next_to_the_gadget(ab.a.edges, ab.h_edges)),
        "not independent", id="absorber-leftover-not-independent"),
    pytest.param(lambda: next(_covers()), lambda c: verify_star_cover(*c),
                 lambda c: (path_graph(2),) + c[1:], "different pattern",
                 id="star-cover-of-another-pattern"),
])
def test_each_gadget_check_refuses_its_tamper(build, verify, tamper, expect):
    gadget = build()
    assert verify(gadget) == (True, None)
    ok, why = verify(tamper(gadget))
    assert not ok and expect in why, why
