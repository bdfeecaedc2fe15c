"""Divisibility tests and the two residue repairs: shift per-vertex degree
residues with chains of near-biregular gadgets, and fix the edge count modulo
e(F) with Hamilton cycles inside a clique-like part.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd

from .embeddings import find_embedding, host_ranks
from .errors import (DegreeError, DomainError, InputError, ResourceError,
                     StructureError)
from .graphs import Graph, complete_bipartite, degree_gcd_of, norm_edge
from .hamilton import edge_disjoint_hamilton_cycles


@dataclass
class DivisibilityReport:
    edge_divisible: bool
    degree_divisible: bool
    edge_residue: int
    degree_residues: dict

    @property
    def divisible(self) -> bool:
        return self.edge_divisible and self.degree_divisible


def check_divisibility(pattern: Graph, host: Graph) -> DivisibilityReport:
    if pattern.e < 1:
        raise InputError("pattern needs at least one edge")
    r = degree_gcd_of(pattern)
    res = {v: d % r for v, d in enumerate(host.degrees()) if d % r}
    return DivisibilityReport(
        edge_divisible=(host.e % pattern.e == 0),
        degree_divisible=not res,
        edge_residue=host.e % pattern.e,
        degree_residues=res,
    )


def _shift_gadget(r: int) -> tuple[Graph, int, int]:
    """Gadget Q: complete bipartite K_{r,r} minus one edge, plus a pendant.

    Returns (Q, u, v) where d(u)=1 and d(v) = r-1 = -1 mod r; all other
    degrees are r.  Embedding u at x and v at y moves one unit of degree
    residue from x to y.
    """
    kb = complete_bipartite(r, r)          # classes 0..r-1 | r..2r-1
    q = Graph(kb.n + 1, set(kb.edges) - {(0, r)} | {(0, 2 * r)})
    return q, 2 * r, r                      # pendant u, deficient v


def _parity_gadget(r: int) -> tuple[Graph, int]:
    """Gadget Q': K_{r,r} with one edge subdivided; the new vertex z has
    degree 2, everything else degree r."""
    kb = complete_bipartite(r, r)
    z = kb.n
    q = Graph(kb.n + 1, set(kb.edges) - {(0, r)} | {(0, z), (r, z)})
    return q, z


class _LazyRankMasks:
    """The rank masks of `adj` under `order` (see `embeddings`), each built
    on first use: the order changes before every gadget, and a search
    reads the masks of only the few vertices it places."""

    def __init__(self, adj, order):
        self.adj, self.order = adj, order
        self.rank = host_ranks(order)
        self.bit = [1 << r for r in self.rank]
        self.built = {}

    def __len__(self) -> int:
        return len(self.order)

    def __getitem__(self, r: int) -> int:
        m = self.built.get(r)
        if m is None:
            m = self.built[r] = sum(map(self.bit.__getitem__,
                                        self.adj[self.order[r]]))
        return m


def make_degree_divisible(host: Graph, r: int, xi: dict,
                          seed: int = 0) -> Graph:
    """Find H inside `host` with d_{host-H}(x) = xi[x] (mod r) for every x
    (a vertex missing from `xi` targets 0).

    A chain of shift gadgets moves the accumulated residue from each vertex to
    the next (ascending id); parity gadgets at the last vertex absorb the
    final amount.  Gadget interiors use fresh vertices relative to previously
    used gadget interiors; gadgets are mutually edge-disjoint.
    """
    n = host.n
    if r < 1:
        raise InputError("modulus must be positive")
    xi_full = {v: int(xi.get(v, 0)) % r for v in range(n)}
    if sum(xi_full.values()) % r:
        raise DomainError("modulus must divide the sum of target residues")
    if r == 1:
        return Graph(n, [])
    if 2 * host.min_degree() < n:
        raise DegreeError(
            f"minimum degree {host.min_degree()} below half of {n}")

    rng = random.Random(seed)
    order = list(range(n))

    h_edges: set = set()
    adj = [set(s) for s in host.adj]

    def place(gadget: Graph, pins: dict, tag) -> None:
        # gadgets must be edge-disjoint (the adjacency view shrinks as edges
        # are consumed); interior vertices may repeat across gadgets, since
        # interiors only ever contribute degree 0 mod r.  The seeded shuffle
        # spreads the load.  The search is complete: None is a dead end.
        rng.shuffle(order)
        masks = _LazyRankMasks(adj, order)
        img = find_embedding(gadget, masks,
                             {p: masks.rank[h] for p, h in pins.items()})
        if img is None:
            raise ResourceError(f"no room left for gadget at step {tag}")
        img = [order[r] for r in img]
        for a, b in gadget.edges:
            e = norm_edge(img[a], img[b])
            h_edges.add(e)
            adj[e[0]].discard(e[1])
            adj[e[1]].discard(e[0])

    a_prev = 0
    q, qu, qv = _shift_gadget(r)
    for i in range(n - 1):
        x = i
        a_i = (a_prev + host.degree(x) - xi_full[x]) % r
        # pushing a_i units forward equals pulling r - a_i units backward
        # (both shift the same residue); take the cheaper direction
        if a_i <= r - a_i:
            for j in range(a_i):
                place(q, {qu: x, qv: x + 1}, (x, j))
        else:
            for j in range(r - a_i):
                place(q, {qu: x + 1, qv: x}, (x, j))
        a_prev = a_i
    # the closing count must satisfy 2*a_n = 2*e(G) (mod r); take the least
    a_n = host.e % r
    if r % 2 == 0 and host.e % (r // 2) < a_n:
        a_n = host.e % (r // 2)
    qp, qz = _parity_gadget(r)
    for j in range(a_n):
        place(qp, {qz: n - 1}, (n - 1, j))

    h = Graph(n, h_edges)
    for v in range(n):
        want = xi_full[v]
        got = (host.degree(v) - h.degree(v)) % r
        assert got == want, f"residue mismatch at {v}: {got} != {want}"
    return h


def _coprime_subset(vertices: list, e_f: int) -> list:
    """Largest prefix V' of the clique part with gcd(|V'|, e(F)) = 1 and
    fewer than e(F) vertices dropped."""
    m = len(vertices)
    for k in range(m, max(m - e_f, 2), -1):
        if gcd(k, e_f) == 1:
            return vertices[:k]
    raise StructureError(
        f"no prefix of size > {m - e_f} coprime to {e_f}")


def fix_edge_count(host: Graph, clique_part: list, pattern: Graph,
                   e_target: int, seed: int = 0) -> Graph:
    """Find an r-divisible H (r = degree gcd of the pattern) inside the
    clique part with e(H) = e_target (mod e(F)) and max degree <= 2 e(F) r.

    H is a union of Hamilton cycles of the subgraph on a vertex subset whose
    size is coprime to e(F); the cycle count comes from the Bezout identity
    between e(F) and that size.
    """
    if pattern.e < 1:
        raise InputError("pattern needs at least one edge")
    r = degree_gcd_of(pattern)
    ef = pattern.e
    if (2 * e_target) % r:
        raise DomainError(f"need {r} | 2*e_target")
    part = sorted(set(clique_part))
    if any(not (0 <= v < host.n) for v in part):
        raise InputError("clique part out of range")

    vprime = _coprime_subset(part, ef)
    np_ = len(vprime)
    a = r if r % 2 else r // 2
    assert e_target % a == 0 and ef % a == 0
    t = (e_target // a) % (ef // a)
    # beta solves beta * |V'| = t  (mod e(F)); exists since gcd(|V'|, e(F)) = 1
    beta = (t * pow(np_, -1, ef)) % ef

    h = Graph(host.n, edge_disjoint_hamilton_cycles(host, vprime, beta * a,
                                                     seed=seed))
    assert h.e % ef == e_target % ef
    assert all(d % r == 0 for d in h.degrees())
    assert h.max_degree() <= 2 * ef * r
    return h
