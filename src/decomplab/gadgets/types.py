"""Certified gadget values and their verifiers.

A switcher is a rooted gadget S with two alternative root edge sets E1, E2
such that S+E1 and S+E2 both decompose into the pattern; the certificates are
carried, never re-searched.  Compressions witness how cheaply the rooted
model maps onto a small reduced graph.
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
    """(J, f, K, psi) with J the induced subgraph of K on its first |J|
    vertices; f maps roots onto V(J); psi extends f homomorphically."""

    j_size: int
    f: dict                 # model root vertex -> K vertex in range(j_size)
    k: Graph
    psi: tuple              # model vertex -> K vertex
    d: int

    @property
    def j(self) -> Graph:
        return self.k.induced(range(self.j_size))


@dataclass
class CertifiedSwitcher:
    model: RootedModel
    e1: frozenset
    e2: frozenset
    cert1: Decomposition
    cert2: Decomposition
    compression: Optional[Compression] = None

    def __post_init__(self):
        self.e1 = frozenset(norm_edge(*e) for e in self.e1)
        self.e2 = frozenset(norm_edge(*e) for e in self.e2)

    def swapped(self) -> "CertifiedSwitcher":
        return CertifiedSwitcher(self.model, self.e2, self.e1,
                                 self.cert2, self.cert1, self.compression)


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


def verify_switcher(sw: CertifiedSwitcher) -> tuple[bool, Optional[str]]:
    """Root independence, disjoint root-supported switch sets, both
    certificates."""
    m = sw.model
    if not m.roots_independent():
        return False, "roots not independent"
    rs = set(m.roots)
    for name, es in (("E1", sw.e1), ("E2", sw.e2)):
        for u, v in es:
            if u not in rs or v not in rs:
                return False, f"{name} edge ({u},{v}) not on roots"
            if (u, v) in m.graph.edges:
                return False, f"{name} edge ({u},{v}) already in the gadget"
    if sw.e1 & sw.e2:
        return False, "E1 and E2 intersect"
    for name, es, cert in (("cert1", sw.e1, sw.cert1), ("cert2", sw.e2, sw.cert2)):
        want = m.graph.edges | es
        if cert.target_edges != want:
            return False, f"{name} targets the wrong edge set"
        if cert.host.edges != want:
            return False, f"{name} host has the wrong edge set"
        ok, why = verify_decomposition(cert)
        if not ok:
            return False, f"{name}: {why}"
    return True, None


def verify_compression(m: RootedModel, comp: Compression) -> tuple[bool, Optional[str]]:
    k = comp.k
    if comp.j_size > k.n:
        return False, "J larger than K"
    jset = set(range(comp.j_size))
    # (C2) f maps the roots onto V(J)
    if set(comp.f.keys()) != set(m.roots):
        return False, "f not defined exactly on the roots"
    if set(comp.f.values()) != jset:
        return False, "f not surjective onto V(J)"
    # (C3) psi is a homomorphism restricting to f on the roots
    if len(comp.psi) != m.graph.n:
        return False, "psi not defined on every model vertex"
    for r in m.roots:
        if comp.psi[r] != comp.f[r]:
            return False, f"psi disagrees with f at root {r}"
    for u, v in m.graph.edges:
        pu, pv = comp.psi[u], comp.psi[v]
        if pu == pv or norm_edge(pu, pv) not in k.edges:
            return False, f"homomorphism violated on edge ({u},{v})"
    d, _ = rooted_degeneracy(k, jset)
    if d > comp.d:
        return False, f"degeneracy exceeds claim: {d} > {comp.d}"
    return True, None


def verify_transformer(tr: CertifiedTransformer) -> tuple[bool, Optional[str]]:
    hv = {v for e in tr.h_edges for v in e}
    hpv = {v for e in tr.hp_edges for v in e}
    t_edges = tr.t.edges
    for u, v in t_edges:
        if u in hv | hpv and v in hv | hpv:
            return False, "leftover vertices not independent in the gadget"
    if (tr.h_edges | tr.hp_edges) & t_edges:
        return False, "leftover edges overlap the gadget"
    for name, extra, other, cert in (("cert_h", tr.h_edges, tr.hp_edges, tr.cert_h),
                                     ("cert_hp", tr.hp_edges, tr.h_edges, tr.cert_hp)):
        want = t_edges | extra
        if cert.target_edges != want or cert.host.edges != want:
            return False, f"{name} covers the wrong edge set"
        if cert.covered_edges() & (other - extra):
            return False, f"{name} uses edges of the other leftover"
        ok, why = verify_decomposition(cert)
        if not ok:
            return False, f"{name}: {why}"
    return True, None


def verify_absorber(ab: CertifiedAbsorber) -> tuple[bool, Optional[str]]:
    hv = {v for e in ab.h_edges for v in e}
    for u, v in ab.a.edges:
        if u in hv and v in hv:
            return False, "leftover vertices not independent in the absorber"
    if ab.h_edges & ab.a.edges:
        return False, "leftover edges overlap the absorber"
    if ab.cert_a.target_edges != ab.a.edges:
        return False, "cert_a covers the wrong edge set"
    ok, why = verify_decomposition(ab.cert_a)
    if not ok:
        return False, f"cert_a: {why}"
    want = ab.a.edges | ab.h_edges
    if ab.cert_ah.target_edges != want:
        return False, "cert_ah covers the wrong edge set"
    ok, why = verify_decomposition(ab.cert_ah)
    if not ok:
        return False, f"cert_ah: {why}"
    return True, None


def verify_star_cover(pattern: Graph, host: Graph, x: int,
                      copies: list) -> tuple[bool, Optional[str]]:
    """Edge-disjoint pattern copies inside `host` covering the star at x
    exactly; non-star edges may be used at most once in total."""
    star = {norm_edge(x, y) for y in host.adj[x]}
    used = set()
    for k, c in enumerate(copies):
        if c.pattern != pattern:
            return False, f"copy {k} has a different pattern"
        if not c.is_valid(host):
            return False, f"copy {k} is not a valid embedding"
        es = c.edge_image()
        if es & used:
            return False, f"copy {k} reuses a covered edge"
        used |= es
    if not star <= used:
        missing = min(star - used)
        return False, f"star edge {missing} uncovered"
    return True, None
