"""Core graph values: simple undirected graphs with dense integer vertex ids.

Everything downstream (solvers, gadget builders, extremal generators) works
with these types.  Graphs are immutable after construction; "mutations" return
new values, so sharing across threads is safe.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import reduce
from math import gcd
from typing import Iterable, Optional, Sequence

from .errors import InputError


def norm_edge(u: int, v: int) -> tuple[int, int]:
    """Normalise an edge to (min, max) order."""
    return (u, v) if u < v else (v, u)


def _reject_edge(n: int, norm: frozenset):
    """Raise for the lowest non-int vertex id (by its text), else for the
    lowest normalised edge that is a loop or out of range."""
    bad = sorted({repr(x) for e in norm for x in e if type(x) is not int})
    if bad:
        raise InputError(f"vertex id {bad[0]} is not an int")
    u, v = min(e for e in norm if not 0 <= e[0] < e[1] < n)
    if u == v:
        raise InputError(f"loop at vertex {u} is not allowed")
    raise InputError(f"edge ({u},{v}) out of range for {n} vertices")


class Graph:
    """Finite simple undirected graph on vertices 0..n-1.

    Vertex identity is a dense integer index.
    Invariants: the vertex count is an int (not a bool); no loops, no
    duplicate edges, endpoints are ints (not bools) below vertex_count.  An
    input edge that is already a (lower, upper) tuple is kept, not copied.
    """

    __slots__ = ("n", "edges", "_adj", "_hash", "_memo")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if type(n) is not int:
            raise InputError(f"vertex_count {n!r} is not an int")
        if n < 0:
            raise InputError("vertex_count must be nonnegative")
        try:
            norm = frozenset([e if u < v and type(e) is tuple
                              else (u, v) if u < v else (v, u)
                              for e in edges for u, v in (e,)])
        except TypeError:       # ids that do not even compare
            raise InputError("vertex ids must be ints") from None
        for u, v in norm:
            if type(u) is not int or type(v) is not int or not 0 <= u < v < n:
                _reject_edge(n, norm)
        self.n = n
        self.edges = norm
        self._adj = None
        self._hash = None
        self._memo = None       # the embedding kernel's plans for a pattern

    # -- basic accessors ---------------------------------------------------

    def __len__(self) -> int:
        return self.n

    @property
    def e(self) -> int:
        return len(self.edges)

    @property
    def adj(self) -> tuple[frozenset, ...]:
        if self._adj is None:
            nbr = [set() for _ in range(self.n)]
            for u, v in self.edges:
                nbr[u].add(v)
                nbr[v].add(u)
            self._adj = tuple(frozenset(s) for s in nbr)
        return self._adj

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def degrees(self) -> list[int]:
        return [len(self.adj[v]) for v in range(self.n)]

    def min_degree(self) -> int:
        return min(self.degrees()) if self.n else 0

    def max_degree(self) -> int:
        return max(self.degrees()) if self.n else 0

    def has_edge(self, u: int, v: int) -> bool:
        return norm_edge(u, v) in self.edges

    def __eq__(self, other) -> bool:
        return (isinstance(other, Graph) and self.n == other.n
                and self.edges == other.edges)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.n, self.edges))
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, e={self.e})"

    # -- derived values ----------------------------------------------------

    def with_edges(self, extra: Iterable[tuple[int, int]]) -> "Graph":
        return Graph(self.n,
                     set(self.edges) | {norm_edge(u, v) for u, v in extra})

    def without_edges(self, gone: Iterable[tuple[int, int]]) -> "Graph":
        return Graph(self.n,
                     set(self.edges) - {norm_edge(u, v) for u, v in gone})

    def minus(self, other: "Graph") -> "Graph":
        """Edge difference on the same vertex set (G - H in edge terms)."""
        return self.without_edges(other.edges)

    def induced(self, vs: Iterable[int]) -> "Graph":
        """Induced subgraph; vertices are relabelled 0..k-1 in sorted order."""
        order = sorted(set(vs))
        pos = {v: i for i, v in enumerate(order)}
        es = [(pos[u], pos[v]) for u, v in self.edges if u in pos and v in pos]
        return Graph(len(order), es)

    def induced_edges(self, vs: Iterable[int]) -> frozenset:
        """Edges with both endpoints inside vs, keeping original ids."""
        s = set(vs)
        return frozenset((u, v) for u, v in self.edges if u in s and v in s)

    def without_vertices(self, vs: Iterable[int]) -> "Graph":
        """G - X, relabelled to a dense range."""
        gone = set(vs)
        keep = [v for v in range(self.n) if v not in gone]
        return self.induced(keep)

    def relabel(self, perm: Sequence[int]) -> "Graph":
        """Apply vertex map v -> perm[v] (a bijection on 0..n-1)."""
        if sorted(perm) != list(range(self.n)):
            raise InputError("relabel requires a permutation of all vertices")
        es = [(perm[u], perm[v]) for u, v in self.edges]
        return Graph(self.n, es)

    def complement(self) -> "Graph":
        es = [(u, v) for u in range(self.n) for v in range(u + 1, self.n)
              if (u, v) not in self.edges]
        return Graph(self.n, es)

    # -- structure queries ---------------------------------------------------

    def components(self) -> list[list[int]]:
        seen = [False] * self.n
        out = []
        for s in range(self.n):
            if seen[s]:
                continue
            comp, stack = [], [s]
            seen[s] = True
            while stack:
                x = stack.pop()
                comp.append(x)
                for y in self.adj[x]:
                    if not seen[y]:
                        seen[y] = True
                        stack.append(y)
            out.append(sorted(comp))
        return out

    def is_connected(self) -> bool:
        return len(self.components()) <= 1

    def _two_colouring(self):
        """Breadth-first 2-colouring, each component's lowest vertex
        coloured 0: (colour, BFS parent, None), or (colour, BFS parent,
        (x, y)) at the first edge xy found with both ends coloured alike."""
        colour = [-1] * self.n
        parent = [-1] * self.n
        adj = self.adj
        for s in range(self.n):
            if colour[s] != -1:
                continue
            colour[s] = 0
            queue = deque([s])
            while queue:
                x = queue.popleft()
                cx = colour[x]
                for y in adj[x]:
                    cy = colour[y]
                    if cy == -1:
                        colour[y] = 1 - cx
                        parent[y] = x
                        queue.append(y)
                    elif cy == cx:
                        return colour, parent, (x, y)
        return colour, parent, None

    def bipartition(self) -> Optional[tuple[set, set]]:
        """Return (A, B) with every edge between A and B, or None if an odd
        cycle exists.  Per-component sides are chosen by lowest vertex id."""
        colour, _, clash = self._two_colouring()
        if clash:
            return None
        return ({v for v in range(self.n) if colour[v] == 0},
                {v for v in range(self.n) if colour[v] == 1})

    def odd_cycle(self) -> Optional[list[int]]:
        """Return one odd cycle as a vertex list, or None if bipartite."""
        _, parent, clash = self._two_colouring()
        if not clash:
            return None
        x, y = clash
        px = [x]
        while px[-1] != -1:
            px.append(parent[px[-1]])
        px.pop()
        py = [y]
        while py[-1] != -1:
            py.append(parent[py[-1]])
        py.pop()
        common = (set(px) & set(py))
        meet = next(v for v in px if v in common)
        return px[:px.index(meet) + 1] + py[:py.index(meet)][::-1]

    def is_bipartite(self) -> bool:
        return self.bipartition() is not None

    def bridges(self) -> list[tuple[int, int]]:
        """Cut edges, via the standard low-link DFS."""
        disc = [-1] * self.n
        low = [0] * self.n
        out = []
        timer = 0
        for root in range(self.n):
            if disc[root] != -1:
                continue
            stack = [(root, -1, iter(self.adj[root]))]
            disc[root] = low[root] = timer
            timer += 1
            while stack:
                x, parent, it = stack[-1]
                advanced = False
                for y in it:
                    if disc[y] == -1:
                        disc[y] = low[y] = timer
                        timer += 1
                        stack.append((y, x, iter(self.adj[y])))
                        advanced = True
                        break
                    elif y != parent:
                        low[x] = min(low[x], disc[y])
                    else:
                        parent = -2  # skip the tree edge back once only
                        stack[-1] = (x, -2, it)
                if not advanced:
                    stack.pop()
                    if stack:
                        px = stack[-1][0]
                        low[px] = min(low[px], low[x])
                        if low[x] > disc[px]:
                            out.append(norm_edge(px, x))
        return sorted(out)

    def has_bridge(self) -> bool:
        return bool(self.bridges())


def degree_gcd_of(g: Graph) -> int:
    """gcd of the vertex degrees; isolated vertices do not change it, since
    gcd(d, 0) = d.  An edgeless graph gives 0."""
    return reduce(gcd, g.degrees(), 0)


# -- standard constructions ----------------------------------------------


def complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise InputError("cycles need at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(edge_count: int) -> Graph:
    """Path with `edge_count` edges (edge_count+1 vertices)."""
    return Graph(edge_count + 1, [(i, i + 1) for i in range(edge_count)])


def complete_bipartite(s: int, t: int) -> Graph:
    return Graph(s + t, [(i, s + j) for i in range(s) for j in range(t)])


def complete_multipartite(sizes: Sequence[int]) -> Graph:
    offs = [0]
    for s in sizes:
        offs.append(offs[-1] + s)
    es = []
    for a in range(len(sizes)):
        for b in range(a + 1, len(sizes)):
            es.extend((u, v)
                      for u in range(offs[a], offs[a + 1])
                      for v in range(offs[b], offs[b + 1]))
    return Graph(offs[-1], es)


def disjoint_union(*graphs: Graph) -> Graph:
    """Disjoint union; block i is shifted by the sizes of blocks before it."""
    n = 0
    es = []
    for g in graphs:
        es.extend((u + n, v + n) for u, v in g.edges)
        n += g.n
    return Graph(n, es)


# -- maps and copies -------------------------------------------------------


@dataclass(frozen=True)
class GraphMap:
    """A vertex map between two graphs; may or may not be a homomorphism."""

    source: Graph
    target: Graph
    image: tuple[int, ...]

    def __post_init__(self):
        if len(self.image) != self.source.n:
            raise InputError("image must assign every source vertex")
        for v in self.image:
            if not (0 <= v < self.target.n):
                raise InputError(f"image vertex {v} out of range")

    def is_homomorphism(self) -> bool:
        im = self.image
        return all(im[u] != im[v] and norm_edge(im[u], im[v]) in self.target.edges
                   for u, v in self.source.edges)

    def is_edge_bijective(self) -> bool:
        """Homomorphism inducing a bijection on edges, onto the whole target."""
        if not self.is_homomorphism():
            return False
        seen = set()
        for u, v in self.source.edges:
            e = norm_edge(self.image[u], self.image[v])
            if e in seen:
                return False
            seen.add(e)
        return len(seen) == self.target.e == self.source.e

    def compose(self, then: "GraphMap") -> "GraphMap":
        if then.source is not self.target and then.source != self.target:
            raise InputError("maps do not compose")
        return GraphMap(self.source, then.target,
                        tuple(then.image[x] for x in self.image))


@dataclass(frozen=True, slots=True, init=False)
class EmbeddedCopy:
    """An injective homomorphic image of a pattern: `image[v]` is the host
    vertex of pattern vertex v.

    A copy does not name its host: that is the host of the `Decomposition`
    or result that holds it, and `is_valid` takes it as its argument.

    `__init__` is written by hand: it sets both fields through their slot
    descriptors, where the generated frozen `__init__` makes an
    `object.__setattr__` call per field, and the solvers build a copy per
    candidate they hand out.  Equality, hashing, repr, `replace`, pickling
    and the frozen assignment error are the dataclass's own.
    """

    pattern: Graph
    image: tuple[int, ...]

    def __init__(self, pattern: Graph, image: tuple[int, ...]):
        _set_pattern(self, pattern)
        _set_image(self, image)

    def edge_image(self) -> frozenset:
        im = self.image
        return frozenset([(im[u], im[v]) if im[u] < im[v] else (im[v], im[u])
                          for u, v in self.pattern.edges])

    def is_valid(self, host: Graph) -> bool:
        if len(self.image) != self.pattern.n:
            return False
        if any(not (0 <= x < host.n) for x in self.image):
            return False
        if len(set(self.image)) != self.pattern.n:
            return False
        im = self.image
        return all(norm_edge(im[u], im[v]) in host.edges
                   for u, v in self.pattern.edges)


_set_pattern = EmbeddedCopy.pattern.__set__
_set_image = EmbeddedCopy.image.__set__


@dataclass
class Decomposition:
    """A certificate: copies of one pattern whose edges partition target_edges."""

    host: Graph
    target_edges: frozenset
    copies: list = field(default_factory=list)

    def __post_init__(self):
        # a Graph's edge set is normal already, and so is any frozenset of
        # its edges: gadget certificates and whole-host solves pass the host's
        # edge set as the target, greedy a difference of two edge sets
        target, edges = self.target_edges, self.host.edges
        if target is not edges and not (type(target) is frozenset
                                        and target <= edges):
            self.target_edges = frozenset([(u, v) if u < v else (v, u)
                                           for u, v in self.target_edges])

    @property
    def pattern(self) -> Optional[Graph]:
        return self.copies[0].pattern if self.copies else None
