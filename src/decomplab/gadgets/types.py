"""Certified gadget values and their verifiers.

A switcher is a rooted gadget S with two alternative root edge sets E1, E2
such that S+E1 and S+E2 both decompose into the pattern; a transformer T
has two leftovers H, H' with T+H and T+H' decomposable, and an absorber A
one leftover H with A and A+H decomposable.  The certificates are carried,
never re-searched, and every gadget verifier checks them through one core:
on each side the certificate's host and target are the gadget's edges plus
that side's extra edges, and `verify_decomposition` accepts it.  A star
cover is a `Decomposition` whose target is the edges it covers;
`verify_star_cover` checks that the target holds the star and hands the
rest to `verify_decomposition`.  Compressions witness how cheaply the
rooted model maps onto a small reduced graph; `verify_switcher` checks a
switcher's compression too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import InputError
from ..graphs import Decomposition, Graph, norm_edge
from ..invariants import rooted_degeneracy
from ..solver import verify_decomposition


@dataclass
class RootedModel:
    graph: Graph
    roots: tuple

    def __post_init__(self):
        self.roots = tuple(self.roots)
        if len(set(self.roots)) != len(self.roots):
            raise InputError("roots must be pairwise distinct")
        for r in self.roots:
            if not (0 <= r < self.graph.n):
                raise InputError(f"root {r} out of range")

    def roots_independent(self) -> bool:
        rs = set(self.roots)
        return not any(u in rs and v in rs for u, v in self.graph.edges)


@dataclass
class Compression:
    """(J, K, psi, d) with J the induced subgraph of K on its first |J|
    vertices and psi a homomorphism from the model into K.  The paper's root
    map f is psi on the roots: it must hit every node of J.  d claims the
    rooted degeneracy of K relative to J."""

    j_size: int
    k: Graph
    psi: tuple              # model vertex -> K vertex
    d: int


@dataclass
class CertifiedSwitcher:
    model: RootedModel
    e1: frozenset
    e2: frozenset
    cert1: Decomposition
    cert2: Decomposition
    compression: Compression

    def __post_init__(self):
        self.e1 = frozenset(norm_edge(*e) for e in self.e1)
        self.e2 = frozenset(norm_edge(*e) for e in self.e2)


@dataclass
class CertifiedTransformer:
    t: Graph                  # gadget edges on the shared universe
    h_edges: frozenset        # first leftover, as edges in the universe
    hp_edges: frozenset       # second leftover
    cert_h: Decomposition     # decomposition of T + H
    cert_hp: Decomposition    # decomposition of T + H'


@dataclass
class CertifiedAbsorber:
    a: Graph                  # absorber edges on the shared universe
    h_edges: frozenset        # the leftover it swallows
    cert_a: Decomposition     # decomposition of A
    cert_ah: Decomposition    # decomposition of A + H


def _verify_sides(gadget_edges: frozenset,
                  sides) -> tuple[bool, Optional[str]]:
    """The check every gadget certificate passes: on each side
    (name, extra edges, certificate), the certificate's host and target are
    both the gadget's edges plus that side's extra edges, and
    `verify_decomposition` accepts it."""
    for name, extra, cert in sides:
        want = gadget_edges | extra
        if cert.target_edges != want:
            return False, f"{name} targets the wrong edge set"
        if cert.host.edges != want:
            return False, f"{name} host has the wrong edge set"
        ok, why = verify_decomposition(cert)
        if not ok:
            return False, f"{name}: {why}"
    return True, None


def _verify_leftover(gadget_edges: frozenset,
                     leftover: frozenset) -> tuple[bool, Optional[str]]:
    """The leftover edges miss the gadget, and their vertices are
    independent in it."""
    if leftover & gadget_edges:
        return False, "leftover edges overlap the gadget"
    vs = {v for e in leftover for v in e}
    if any(u in vs and v in vs for u, v in gadget_edges):
        return False, "leftover vertices not independent in the gadget"
    return True, None


def verify_switcher(sw: CertifiedSwitcher) -> tuple[bool, Optional[str]]:
    """Root independence, disjoint root-supported switch sets, both
    certificates, and the compression."""
    m = sw.model
    if not m.roots_independent():
        return False, "roots not independent"
    rs = set(m.roots)
    for name, es in (("E1", sw.e1), ("E2", sw.e2)):
        for u, v in es:
            if u not in rs or v not in rs:
                return False, f"{name} edge ({u},{v}) not on roots"
    if sw.e1 & sw.e2:
        return False, "E1 and E2 intersect"
    ok, why = _verify_sides(m.graph.edges, (("cert1", sw.e1, sw.cert1),
                                            ("cert2", sw.e2, sw.cert2)))
    if not ok:
        return ok, why
    ok, why = verify_compression(m, sw.compression)
    return ok, why and f"compression: {why}"


def verify_compression(m: RootedModel, comp: Compression) -> tuple[bool, Optional[str]]:
    k = comp.k
    if comp.j_size > k.n:
        return False, "J larger than K"
    jset = set(range(comp.j_size))
    if len(comp.psi) != m.graph.n:
        return False, "psi not defined on every model vertex"
    for x, px in enumerate(comp.psi):
        if type(px) is not int or not 0 <= px < k.n:
            return False, f"psi sends model vertex {x} outside V(K)"
    # the root map is psi on the roots, and it covers V(J) exactly
    if {comp.psi[r] for r in m.roots} != jset:
        return False, "psi does not map the roots onto V(J)"
    for u, v in m.graph.edges:
        pu, pv = comp.psi[u], comp.psi[v]
        if pu == pv or norm_edge(pu, pv) not in k.edges:
            return False, f"homomorphism violated on edge ({u},{v})"
    d, _ = rooted_degeneracy(k, jset)
    if d > comp.d:
        return False, f"degeneracy exceeds claim: {d} > {comp.d}"
    return True, None


def verify_transformer(tr: CertifiedTransformer) -> tuple[bool, Optional[str]]:
    ok, why = _verify_leftover(tr.t.edges, tr.h_edges | tr.hp_edges)
    if not ok:
        return ok, why
    return _verify_sides(tr.t.edges, (("cert_h", tr.h_edges, tr.cert_h),
                                      ("cert_hp", tr.hp_edges, tr.cert_hp)))


def verify_absorber(ab: CertifiedAbsorber) -> tuple[bool, Optional[str]]:
    ok, why = _verify_leftover(ab.a.edges, ab.h_edges)
    if not ok:
        return ok, why
    return _verify_sides(ab.a.edges, (("cert_a", frozenset(), ab.cert_a),
                                      ("cert_ah", ab.h_edges, ab.cert_ah)))


def verify_star_cover(pattern: Graph, host: Graph, x: int,
                      cover: Decomposition) -> tuple[bool, Optional[str]]:
    """`cover` is a star cover of x in `host`: a decomposition on `host`
    into copies of `pattern` whose target, the edges it covers, holds
    every edge at x."""
    if cover.host != host:
        return False, "cover has a different host"
    if not (0 <= x < host.n):
        return False, "vertex x out of range"
    if cover.copies and cover.pattern != pattern:
        return False, "copy 0 has a different pattern"
    missing = {norm_edge(x, y) for y in host.adj[x]} - cover.target_edges
    if missing:
        return False, f"star edge {min(missing)} uncovered"
    return verify_decomposition(cover)
