"""Extremal lower-bound families with machine-checkable obstructions.

Each generator rebuilds an explicit family from its proof recipe and returns
the graph together with a certificate recomputed from the graph itself (never
trusted from the construction).  `obstruction_check` revalidates a
certificate by definition-chasing on the pattern plus exact recounts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .divisibility import check_divisibility, fix_edge_count
from .errors import DegreeError, DomainError, InputError, StructureError
from .graphs import Graph, complete_multipartite, degree_gcd_of, norm_edge
from .hamilton import edge_disjoint_hamilton_cycles
from .invariants import (THETA_UNDEFINED, bipartite_invariants,
                         colouring_invariants)

TAU_COUNT = "tau_count"
THETA_COUNT = "theta_count"
BRIDGE_CUT = "bridge_cut"


@dataclass
class ObstructionCertificate:
    kind: str
    region: frozenset
    modulus: int
    residue: int

    def __post_init__(self):
        self.region = frozenset(self.region)


@dataclass
class ExtremalInstance:
    graph: Graph
    certificate: Optional[ObstructionCertificate]
    report: dict = field(default_factory=dict)


def _two_cliques_bipartite_frame(n1: int, n2: int, n3: int) -> Graph:
    """Cliques on the outer parts, complete bipartite onto the middle,
    middle part independent."""
    g = complete_multipartite([n1, n2, n3])
    v1 = range(0, n1)
    v3 = range(n1 + n2, n1 + n2 + n3)
    inner = ([(a, b) for a in v1 for b in v1 if a < b]
             + [(a, b) for a in v3 for b in v3 if a < b])
    drop = [(a, b) for a in v1 for b in v3]
    return g.with_edges(inner).without_edges(drop)


def generate_tau_drop_family(f: Graph, m: int) -> ExtremalInstance:
    """Two-cliques-plus-middle family for bipartite patterns with tau > 1:
    the first clique's edge count dodges every multiple of tau."""
    inv = bipartite_invariants(f)
    tau, r, ef = inv.tau, inv.degree_gcd, f.e
    if tau <= 1:
        raise DomainError("family needs tau > 1")
    if tau % 2 == 1:
        n1, n2, n3 = 2 * r * m + tau - 1, 2 * r * m - tau + 2, 2 * r * m - tau + 1
        ham_cycles = r + 1 - tau
    else:
        n1, n2, n3 = 2 * r * m + tau, 2 * r * m - tau + 1, 2 * r * m - tau
        ham_cycles = r - tau
    if n3 < 3 or (ham_cycles and n3 - 1 - 2 * (ham_cycles - 1) < -(-n3 // 2)):
        raise StructureError(f"scale {m} too small for the degree repairs")
    g = _two_cliques_bipartite_frame(n1, n2, n3)
    v3 = list(range(n1 + n2, n1 + n2 + n3))

    gp = g
    if ham_cycles:
        gp = g.without_edges(
            edge_disjoint_hamilton_cycles(g, v3, ham_cycles, seed=m))

    try:
        h = fix_edge_count(gp, v3, f, gp.e, seed=m)
    except DegreeError as exc:
        raise StructureError(
            f"scale {m} too small for the edge-count repair: {exc}")
    gpp = gp.minus(h)

    rep = check_divisibility(f, gpp)
    assert rep.divisible, "family promises divisibility"
    region = frozenset(range(n1))
    count = len(gpp.induced_edges(region))
    cert = ObstructionCertificate(TAU_COUNT, region, tau, count % tau)
    assert cert.residue != 0
    min_deg_bound = (2 * len(gpp)) // 3 - 2 * r * (ef + 1)
    report = {"min_degree": gpp.min_degree(), "claimed_bound": min_deg_bound,
              "sizes": (n1, n2, n3)}
    assert gpp.min_degree() >= min_deg_bound
    return ExtremalInstance(gpp, cert, report)


def _degree_one_gadget(r: int) -> tuple[Graph, int]:
    """A graph with one vertex of degree 1 and all others of degree r
    (r odd): a biregular block with a matching teased apart."""
    if r == 1:
        return Graph(2, [(0, 1)]), 0
    kb_edges = [(i, r + j) for i in range(r) for j in range(r)]
    match = [(i, r + i) for i in range((r - 1) // 2)]
    edges = set(kb_edges) - set(match)
    qp = 2 * r
    for a, b in match:
        edges.add((a, qp))
        edges.add((b, qp))
    q = qp + 1
    edges.add((qp, q))
    return Graph(q + 1, edges), q


def _two_cliques(half: int) -> Graph:
    """Two disjoint cliques on `half` vertices each, the second shifted by
    `half`."""
    return Graph(2 * half, [(b + x, b + y) for b in (0, half)
                            for x in range(half) for y in range(x + 1, half)])


def generate_halves_family(f: Graph, m: int) -> ExtremalInstance:
    """Two-clique families certifying that half degree is necessary when the
    component counts share a factor, or when every edge closes a cycle."""
    inv = bipartite_invariants(f)
    r, tt, ef = inv.degree_gcd, inv.tau_tilde, f.e
    every_edge_cyclic = not f.has_bridge()
    if tt == 1:
        if not every_edge_cyclic:
            raise DomainError(
                "family needs tau_tilde > 1 or every edge in a cycle")
        # two cliques, one edge swapped for a bridge: the bridge is uncoverable
        half = m * ef
        if half < 3:
            raise StructureError("scale too small")
        g = _two_cliques(half).without_edges([(0, 1)]).with_edges([(0, half)])
        rep = check_divisibility(f, g)
        assert rep.divisible
        cert = ObstructionCertificate(BRIDGE_CUT, {0, half}, 2, 1)
        return ExtremalInstance(g, cert, {"style": "bridge"})

    a = r if r % 2 else r // 2
    if a < tt:
        # both clique edge counts dodge the component-count gcd
        half = 2 * m * ef * tt + 1
        if half < 2 * (a * ef + 2):
            raise StructureError("scale too small for the cycle removals")
        g = _two_cliques(half)
        side1 = range(half)
        gp = g.without_edges(
            edge_disjoint_hamilton_cycles(g, side1, a, seed=m)
            + edge_disjoint_hamilton_cycles(g, range(half, 2 * half),
                                            (ef - 1) * a, seed=m + 1))
        rep = check_divisibility(f, gp)
        assert rep.divisible
        region = frozenset(side1)
        count = len(gp.induced_edges(region))
        cert = ObstructionCertificate(TAU_COUNT, region, tt, count % tt)
        assert cert.residue != 0
        return ExtremalInstance(gp, cert, {"style": "component_count"})

    # r odd with tau_tilde == r: a bridge between two near-cliques survives
    if not every_edge_cyclic:
        raise DomainError("this branch requires every edge in a cycle")
    half = r * m + 1
    q_graph, q_vertex = _degree_one_gadget(r)
    if half < q_graph.n + 2 * ef * (r + 1) + r + 6:
        raise StructureError("scale too small for the gadget removals")
    g = _two_cliques(half).with_edges([(0, half)])
    # remove one degree-1 gadget in each clique, anchored at the bridge ends
    drop = []
    for anchor in (0, half):
        vmap = list(range(anchor + 1, anchor + q_graph.n))
        vmap.insert(q_vertex, anchor)
        drop.extend((vmap[a_], vmap[b_]) for a_, b_ in q_graph.edges)
    gp = g.without_edges(drop)
    h = fix_edge_count(gp, list(range(1, half)), f, gp.e, seed=m)
    gpp = gp.minus(h)
    rep = check_divisibility(f, gpp)
    assert rep.divisible, rep
    cert = ObstructionCertificate(BRIDGE_CUT, {0, half}, 2, 1)
    return ExtremalInstance(gpp, cert, {"style": "odd_regular_bridge"})


def generate_theta_family(f: Graph, m: int) -> ExtremalInstance:
    """Complete multipartite family with classes off-balance by one: class
    intersections of any star cover differ by a multiple of the
    class-difference gcd, but the sizes force a unit difference."""
    inv = colouring_invariants(f)
    chi = inv.chi
    if inv.theta is THETA_UNDEFINED or inv.theta <= 1:
        raise DomainError("family needs the class-difference gcd above 1")
    if chi < 4:
        raise DomainError("family needs at least 4 colours")
    r = degree_gcd_of(f)
    sizes = [r * m + 1, r * m - 1] + [r * m] * (chi - 2)
    if r * m - 1 < 1:
        raise StructureError("scale too small")
    g = complete_multipartite(sizes)
    region = frozenset(range(sizes[0]))
    cert = ObstructionCertificate(THETA_COUNT, region, inv.theta,
                                  (sizes[0] - sizes[2]) % inv.theta)
    assert cert.residue != 0
    x = sum(sizes[:-1])          # a vertex in the last class
    report = {"sizes": sizes, "vertex": x, "degree": g.degree(x)}
    assert g.degree(x) % r == 0
    return ExtremalInstance(g, cert, report)


def generate_space_family(f: Graph, m: int) -> ExtremalInstance:
    """Complete multipartite family whose last class is too small to supply
    every star cover's forced share; no modular certificate exists, so the
    verdict is an arithmetic report plus the solver oracle."""
    inv = colouring_invariants(f)
    chi = inv.chi
    gamma = inv.chi_vx - (chi - 2)
    if gamma <= 0:
        raise DomainError("family needs the star parameter above chi - 2")
    r = degree_gcd_of(f)
    best = None
    for mm in range(m, 8 * m + 8):
        cap = -(-(gamma.numerator * mm) // gamma.denominator) - 1  # ceil - 1
        for s in range(min(cap, mm), 0, -1):
            if ((chi - 2) * mm + s) % r:
                continue
            sizes = [mm] * (chi - 1) + [s]
            g = complete_multipartite(sizes)
            if not check_divisibility(f, g).divisible:
                continue
            best = (mm, s, sizes, g)
            break
        if best:
            break
    if best is None:
        raise StructureError(f"no feasible size at scale {m}")
    mm, s, sizes, g = best
    x = 0
    # the arithmetic obstruction: covering d(x) edges forces more than s
    # vertices in the last class
    forced = Fraction(g.degree(x)) * (1 - Fraction(chi - 2, inv.chi_vx))
    assert forced > s, (forced, s)
    report = {"sizes": sizes, "vertex": x, "degree": g.degree(x),
              "last_class": s, "needed": str(forced)}
    return ExtremalInstance(g, None, report)


def generate_extremal(f: Graph, family: str, m: int) -> ExtremalInstance:
    """Build one family at scale `m`; every report carries the graph's
    minimum-degree share δ(G)/n as `min_degree_ratio`."""
    if family == "tau_23":
        inst = generate_tau_drop_family(f, m)
    elif family == "halves":
        inst = generate_halves_family(f, m)
    elif family == "theta":
        inst = generate_theta_family(f, m)
    elif family == "space":
        inst = generate_space_family(f, m)
    else:
        raise InputError(f"unknown family {family!r}")
    g = inst.graph
    inst.report["min_degree_ratio"] = Fraction(g.min_degree(), g.n)
    return inst


# -- certificate validation ------------------------------------------------------


def obstruction_check(f: Graph, g: Graph,
                      cert: ObstructionCertificate) -> bool:
    """Revalidate a modular counting obstruction from scratch."""
    if cert.modulus <= 1:
        return False
    if cert.residue % cert.modulus == 0:
        return False
    region = set(cert.region)
    if not region or not region <= set(range(g.n)):
        return False            # an empty region certifies nothing

    if cert.kind == TAU_COUNT:
        count = len(g.induced_edges(region))
        if count % cert.modulus != cert.residue % cert.modulus:
            return False
        boundary = {v for e in g.edges for v in e
                    if (e[0] in region) != (e[1] in region)} - region
        boundary_independent = not any(
            u in boundary and v in boundary for u, v in g.edges)
        region_closed = not any(
            (u in region) != (v in region) for u, v in g.edges)
        if not (region_closed or boundary_independent):
            return False
        try:
            inv = bipartite_invariants(f)
        except DomainError:
            return False
        # every embedded copy meets a closed region in whole components, and
        # a region with an independent boundary in a non-supporting set
        return (inv.tau_tilde if region_closed else inv.tau) == cert.modulus

    if cert.kind == THETA_COUNT:
        inv = colouring_invariants(f)
        if inv.theta is THETA_UNDEFINED or inv.theta != cert.modulus:
            return False
        if inv.chi < 4:
            return False
        classes = [set(c) for c in g.complement().components()]
        if len(classes) != inv.chi:
            return False
        # the graph must be complete multipartite over these classes
        expected = sum(len(a) * len(b) for i, a in enumerate(classes)
                       for b in classes[i + 1:])
        if g.e != expected:
            return False
        if region not in [frozenset(c) for c in classes]:
            return False
        r = degree_gcd_of(f)
        others = [c for c in classes if frozenset(c) != frozenset(region)]
        for other in others:
            diff = (len(region) - len(other)) % cert.modulus
            if diff != cert.residue % cert.modulus:
                continue
            # need a vertex outside both classes with divisible degree
            for third in others:
                if third is other:
                    continue
                x = min(third)
                if g.degree(x) % r == 0:
                    return True
        return False

    if cert.kind == BRIDGE_CUT:
        if len(region) != 2:
            return False
        u, v = sorted(region)
        if not g.has_edge(u, v):
            return False
        if norm_edge(u, v) not in g.bridges():
            return False
        return not f.has_bridge()   # every pattern edge closes a cycle

    return False
