"""Pattern-side parameters: degree gcd, the two bipartite gcd invariants,
chromatic data (including the vertex-star and class-difference parameters),
colour-neighbourhood tuples, and rooted degeneracy.

All rational values are exact fractions; thresholds downstream compare them
for equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from heapq import heapify, heappop, heappush
from itertools import count
from math import gcd, inf
from typing import Iterator, Optional

from .errors import DomainError, InputError, ResourceError, SizeGuardError
from .graphs import Graph, degree_gcd_of

DEFAULT_COLOURING_GUARD = 20
DEFAULT_SUBSET_GUARD = 26
_FIRST_COLOURING_STEPS = 10 ** 6

THETA_UNDEFINED = None  # marker: theta is only defined for chi >= 3


def degree_gcd(f: Graph) -> int:
    """gcd of the vertex degrees; rejects isolated vertices."""
    if f.e < 1:
        raise InputError("pattern needs at least one edge")
    if 0 in f.degrees():
        raise InputError("pattern has an isolated vertex")
    return degree_gcd_of(f)


# -- chromatic number (DSATUR branch and bound) ----------------------------


def _degree_order(g: Graph) -> list[int]:
    """Vertices by descending degree, ties by index."""
    return sorted(range(g.n), key=lambda v: -g.degree(v))


def _greedy_clique(g: Graph) -> list[int]:
    clique = []
    for v in _degree_order(g):
        if all(v in g.adj[u] for u in clique):
            clique.append(v)
    return clique


def colourable_with(g: Graph, k: int) -> bool:
    """Decide k-colourability by DSATUR-ordered backtracking.  Colours above
    the current maximum are interchangeable, so only one fresh colour is
    branched on at each vertex.

    The next vertex is the uncoloured one with the most distinct neighbour
    colours, then the highest degree, then the lowest index.  It comes off
    a heap of (-saturation, -degree, v) entries; an entry whose vertex is
    coloured or whose saturation has changed since is stale and skipped.
    """
    n = g.n
    adj = g.adj
    colour = [0] * n
    # seen[v]: colour -> the number of v's neighbours with that colour, so
    # len(seen[v]) is v's saturation
    seen: list[dict] = [{} for _ in range(n)]
    heap = [(0, -len(adj[v]), v) for v in range(n)]
    heapify(heap)

    def recolour(v: int, old: int, new: int) -> None:
        colour[v] = new
        for u in adj[v]:
            counts = seen[u]
            before = len(counts)
            if old:
                counts[old] -= 1
                if not counts[old]:
                    del counts[old]
            if new:
                counts[new] = counts.get(new, 0) + 1
            if len(counts) != before and not colour[u]:
                heappush(heap, (-len(counts), -len(adj[u]), u))

    # one entry per coloured vertex: (v, its untried colours, the highest
    # colour used before it)
    stack = []
    used = 0
    while len(stack) < n:
        if len(heap) > 4 * n:           # drop the stale entries
            heap[:] = [(-len(seen[v]), -len(adj[v]), v)
                       for v in range(n) if not colour[v]]
            heapify(heap)
        while True:
            sat, _, v = heappop(heap)
            if not colour[v] and -sat == len(seen[v]):
                break
        stack.append((v, iter([c for c in range(1, min(used + 1, k) + 1)
                               if c not in seen[v]]), used))
        while True:             # the next untried colour, backtracking
            v, untried, used = stack[-1]
            recolour(v, colour[v], next(untried, 0))
            if colour[v]:
                used = max(used, colour[v])
                break
            stack.pop()
            heappush(heap, (-len(seen[v]), -len(adj[v]), v))
            if not stack:
                return False
    return True


def chromatic_number(g: Graph) -> int:
    """Exact chromatic number: clique lower bound, then DSATUR-ordered
    branch and bound upward from it."""
    if g.n == 0:
        return 0
    if g.e == 0:
        return 1
    if g.is_bipartite():
        return 2
    lower = max(len(_greedy_clique(g)), 3)
    k = lower
    while not colourable_with(g, k):
        k += 1
    return k


def _colouring_guard(g: Graph, guard: int) -> None:
    if g.n > guard:
        raise SizeGuardError(
            f"colouring enumeration guard: {g.n} vertices > {guard}")


def _walk(g: Graph, s: int, steps=inf) -> Iterator[tuple[int, ...]]:
    """The proper s-colourings in lexicographic order along `_degree_order`,
    by backtracking; raises ResourceError after `steps` colour tries."""
    order = _degree_order(g)
    colour = [0] * g.n
    untried = []            # per entered vertex of `order`, colours yet to try
    while True:
        if len(untried) == g.n:
            yield tuple(colour)
        else:
            taken = {colour[u] for u in g.adj[order[len(untried)]]}
            untried.append(iter([c for c in range(1, s + 1) if c not in taken]))
        while untried:      # the next untried colour, backtracking
            steps -= 1
            if steps < 0:
                raise ResourceError(f"{s}-colouring walk: step budget spent")
            v = order[len(untried) - 1]
            colour[v] = next(untried[-1], 0)
            if colour[v]:
                break
            untried.pop()
        else:
            return


def proper_colourings(g: Graph, s: int) -> Iterator[tuple[int, ...]]:
    """All proper colourings with colour set 1..s (labelled, no symmetry
    reduction).  Unguarded: callers that list them all check the guard."""
    return _walk(g, s)


def star_counts(g: Graph, s: int) -> Iterator[tuple[tuple, int, tuple]]:
    """(c, v, counts) for each proper s-colouring c, in `proper_colourings`
    order, and each vertex v coloured s, ascending: counts[i-1] is the
    number of v's neighbours coloured i, for i < s."""
    for c in proper_colourings(g, s):
        for v in range(g.n):
            if c[v] == s:
                counts = [0] * s
                for u in g.adj[v]:
                    counts[c[u] - 1] += 1
                yield c, v, tuple(counts[:-1])


def chi_colouring(g: Graph) -> tuple[int, tuple[int, ...]]:
    """chi(g) and the first proper chi-colouring in `proper_colourings`
    order.  With two colours or fewer that colouring gives each component's
    first vertex in `_degree_order` colour 1 and is read off in linear time;
    with more, the walk gives up after _FIRST_COLOURING_STEPS colour tries."""
    chi = chromatic_number(g)
    if chi > 2:
        return chi, next(_walk(g, chi, _FIRST_COLOURING_STEPS))
    colour = [0] * g.n
    for r in _degree_order(g):
        stack = [(r, 1)]
        while stack:
            v, c = stack.pop()
            if not colour[v]:
                colour[v] = c
                stack += [(u, 3 - c) for u in g.adj[v]]
    return chi, tuple(colour)


def renumber(colours, fixed: dict, start: int) -> dict:
    """Number the distinct colours: those in `fixed` as it says, the rest
    in ascending order from `start`."""
    rest = sorted(set(colours) - fixed.keys())
    return {**fixed, **dict(zip(rest, count(start)))}


# -- bipartite invariants ---------------------------------------------------


@dataclass
class BipartiteInvariants:
    degree_gcd: int
    tau: int
    tau_tilde: int
    bridge_edges: list
    component_edge_counts: list


def _support_masks(f: Graph):
    """Per-vertex neighbourhood bitmasks and the edge list, for subset scans."""
    nbr = [0] * f.n
    for u, v in f.edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    return nbr, sorted(f.edges)


def is_c4_supporting(f: Graph, subset_mask: int, nbr=None, edge_list=None) -> bool:
    """True iff some a,b in X (distinct), c,d outside X (distinct) have
    ac, bd, cd all edges of f."""
    if nbr is None:
        nbr, edge_list = _support_masks(f)
    x = subset_mask
    for c, d in edge_list:
        if (x >> c) & 1 or (x >> d) & 1:
            continue
        a_set = nbr[c] & x
        b_set = nbr[d] & x
        if not a_set or not b_set:
            continue
        if a_set != b_set or a_set & (a_set - 1):
            return True
    return False


def _connected_mask(nbr, mask: int) -> bool:
    if mask == 0:
        return True
    start_bit = mask & -mask
    seen = start_bit
    stack = [start_bit.bit_length() - 1]
    while stack:
        v = stack.pop()
        avail = nbr[v] & mask & ~seen
        while avail:
            b = avail & -avail
            seen |= b
            stack.append(b.bit_length() - 1)
            avail &= ~b
    return seen == mask


def nonsupporting_subsets(f: Graph, guard: int) -> Iterator[tuple[int, int]]:
    """(mask, e(F[X])) for each vertex subset X, as a bitmask in increasing
    order, that spans an edge and is not C4-supporting.  Refuses a pattern
    on more than `guard` vertices, since the scan visits 2^n subsets."""
    if f.n > guard:
        raise SizeGuardError(f"subset scan guard: {f.n} > {guard}")
    nbr, edge_list = _support_masks(f)
    for mask in range(1, 1 << f.n):
        cnt = sum(1 for u, v in edge_list
                  if (mask >> u) & 1 and (mask >> v) & 1)
        if cnt and not is_c4_supporting(f, mask, nbr, edge_list):
            yield mask, cnt


def tau_of(f: Graph, guard: int = DEFAULT_SUBSET_GUARD) -> int:
    """gcd of e(F[X]) over X that are not C4-supporting.  Plain subset scan
    with an early gcd==1 cutoff; the cutoff is exact since gcd can only
    shrink towards 1."""
    g = 0
    for _, cnt in nonsupporting_subsets(f, guard):
        g = gcd(g, cnt)
        if g == 1:
            return 1
    if g == 0:
        raise DomainError("no non-supporting subset with edges; e(F) too small")
    return g


def bipartite_invariants(f: Graph, guard: int = DEFAULT_SUBSET_GUARD) -> BipartiteInvariants:
    if f.e < 2:
        raise InputError("need at least two edges")
    if 0 in f.degrees():
        raise InputError("pattern has an isolated vertex")
    if not f.is_bipartite():
        cyc = f.odd_cycle()
        raise DomainError(f"pattern is not bipartite: odd cycle {cyc}")
    comp_counts = [len(f.induced_edges(c)) for c in f.components()]
    return BipartiteInvariants(
        degree_gcd=degree_gcd(f),
        tau=tau_of(f, guard=guard),
        tau_tilde=reduce(gcd, comp_counts, 0),
        bridge_edges=f.bridges(),
        component_edge_counts=comp_counts,
    )


# -- colouring invariants ----------------------------------------------------


@dataclass
class ColouringInvariants:
    chi: int
    chi_cr: Fraction
    sigma: int                       # min size of colour class 1 over Col(F)
    chi_vx: Fraction
    theta: Optional[int]             # None marks "undefined" (chi == 2)


def colouring_invariants(f: Graph,
                         guard: int = DEFAULT_COLOURING_GUARD) -> ColouringInvariants:
    """chi, the critical chromatic value, per-vertex star-colour minima, the
    vertex-cover chromatic value and the class-difference gcd."""
    if f.e < 1:
        raise InputError("need at least one edge")
    if 0 in f.degrees():
        raise InputError("pattern has an isolated vertex")
    _colouring_guard(f, guard)
    chi = chromatic_number(f)

    # every chi-colouring colours some vertex chi, so each one is met here
    sigma = f.n
    sigma_v = {}          # v -> sigma(F, v), over Col(F, v)
    theta_g = 0
    for c, v, counts in star_counts(f, chi):
        sigma = min(sigma, c.count(1))
        sigma_v[v] = min(sigma_v.get(v, counts[0]), counts[0])
        if chi >= 3:
            theta_g = gcd(theta_g, counts[0] - counts[1])
    if not sigma_v:
        raise DomainError("no proper colouring found (internal defect)")
    chi_cr = (Fraction(0) if chi <= 1
              else Fraction((chi - 1) * f.n, f.n - sigma))

    if chi >= 3:
        # every vertex appears in the last class of some colouring
        chi_vx = (chi - 2) * min(
            Fraction(f.degree(v), f.degree(v) - sigma_v[v]) for v in sigma_v)
        theta = theta_g or 2  # gcd of the all-zero set is 2
    else:
        chi_vx = Fraction(0)
        theta = THETA_UNDEFINED

    return ColouringInvariants(
        chi=chi, chi_cr=chi_cr, sigma=sigma, chi_vx=chi_vx, theta=theta)


# -- colour-neighbourhood tuples ---------------------------------------------


@dataclass(frozen=True)
class CNTuple:
    s: int
    degrees: tuple
    witness_colouring: tuple
    witness_vertex: int


def cn_tuples(f: Graph, s: int, guard: int = DEFAULT_COLOURING_GUARD) -> set:
    """All (s-1)-tuples of per-class neighbour counts at a vertex coloured s,
    over proper s-colourings; one witness each."""
    _colouring_guard(f, guard)
    chi = chromatic_number(f)
    if s < chi:
        raise DomainError(f"s={s} below chromatic number {chi}")
    found: dict = {}
    for c, v, t in star_counts(f, s):
        if t not in found:
            found[t] = CNTuple(s, t, c, v)
    return set(found.values())


# -- rooted degeneracy --------------------------------------------------------


def rooted_degeneracy(k: Graph, roots) -> tuple[int, list[int]]:
    """Smallest d admitting an ordering of V(K)\\X where each vertex sees at
    most d earlier-or-root vertices; greedy min-degree removal is exact.

    Returns (d, ordering witness)."""
    roots = set(roots)
    for r in roots:
        if not (0 <= r < k.n):
            raise InputError(f"root {r} out of range")
    remaining = set(range(k.n)) - roots
    order_rev = []
    d = 0
    deg = {v: sum(1 for u in k.adj[v] if u in remaining or u in roots)
           for v in remaining}
    while remaining:
        v = min(remaining, key=lambda v: (deg[v], v))
        d = max(d, deg[v])
        order_rev.append(v)
        remaining.discard(v)
        for u in k.adj[v]:
            if u in remaining:
                deg[u] -= 1
    return d, order_rev[::-1]
