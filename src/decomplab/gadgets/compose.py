"""Vertex allocation and gluing for gadget composition.

A gadget space holds copies of one pattern, given once when the space is
opened; each copy it records on a certificate side is a bare image tuple,
and `finalize` hands them out with that pattern and the space's graph as
their host.  `place` wires every piece into the space: pinned vertices keep
their given ids and every other vertex is allocated fresh.  `glue` places a
certified switcher the same way and records its certificates' copies; given
`beta`, the map from the switcher's J nodes into the K being built, it also
records the switcher's compression, and `compression(base)` attaches every
recorded one to the builder's base compression.  Edge multi-occurrence
across glued pieces is forbidden and checked at insertion time.
"""

from __future__ import annotations

from ..errors import InputError
from ..graphs import Decomposition, EmbeddedCopy, Graph, norm_edge
from .types import Compression


class GadgetSpace:
    """A growing vertex universe accumulating edge-disjoint gadget pieces
    and the copies of `pattern` that decompose them."""

    def __init__(self, pattern: Graph):
        self.pattern = pattern
        self.n = 0
        self.edges: set = set()
        self.copies: dict = {}        # side -> list of image tuples
        self.attached: list = []      # (compression, beta, vmap) per glue

    def fresh(self, k: int) -> list[int]:
        out = list(range(self.n, self.n + k))
        self.n += k
        return out

    def fresh_one(self) -> int:
        self.n += 1
        return self.n - 1

    def add_edge(self, u: int, v: int):
        if u == v:
            raise InputError("gluing created a loop")
        e = (u, v) if u < v else (v, u)
        if e in self.edges:
            raise InputError(f"edge {e} glued twice")
        self.edges.add(e)

    def place(self, g: Graph, pins: dict) -> list[int]:
        """Wire a copy of `g` into the space and return its vertex map.

        Each vertex in `pins` keeps its given space id; every other vertex
        gets a fresh id, in vertex order.  Each edge of `g` that does not
        join two pinned vertices is added, all in one checked set update: a
        one-to-one map makes no loop and no edge twice within the piece, so
        the piece's edges need only miss the space's.  Any other piece is
        added edge by edge, which names the first loop or repeated edge.
        """
        vmap = [pins[x] if x in pins else self.fresh_one()
                for x in range(g.n)]
        new = [(u, v) if u < v else (v, u) for a, b in g.edges
               if a not in pins or b not in pins
               for u, v in ((vmap[a], vmap[b]),)]
        if len(set(vmap)) == g.n and self.edges.isdisjoint(new):
            self.edges.update(new)
        else:
            for u, v in new:
                self.add_edge(u, v)
        return vmap

    def graph(self) -> Graph:
        return Graph(self.n, self.edges)

    def record(self, side, image) -> None:
        self.copies.setdefault(side, []).append(tuple(image))

    def glue(self, sw, root_images, swap: bool = False, beta=None) -> None:
        """Place a certified switcher with its roots at `root_images`
        (ordered as the switcher's roots) and every other vertex fresh, and
        record its certificates' copies on the sides `cert1` and `cert2`;
        with `swap`, crosswise.  The switcher's own edges join the space;
        its switched edge sets do not, since the side a copy is recorded on
        decides which of them materialises.  With `beta`, the map from the
        switcher's J nodes into the K being built, the switcher's
        compression is recorded too, for `compression` to attach."""
        m = sw.model
        if len(root_images) != len(m.roots):
            raise InputError("root image count mismatch")
        if len(set(root_images)) != len(root_images):
            raise InputError("root images must be distinct")
        vmap = self.place(m.graph, dict(zip(m.roots, root_images)))
        sides = ("cert2", "cert1") if swap else ("cert1", "cert2")
        for side, cert in zip(sides, (sw.cert1, sw.cert2)):
            self.copies.setdefault(side, []).extend(
                tuple([vmap[x] for x in c.image]) for c in cert.copies)
        if beta is not None:
            self.attached.append((sw.compression, beta, vmap))

    def finalize(self, side, extra_edges=()) -> Decomposition:
        """The copies recorded on `side` as a decomposition of the current
        universe plus `extra_edges`: host and target are that edge set, so
        `verify_decomposition` checks that the copies partition all of it."""
        host = Graph(self.n, [*self.edges, *extra_edges])
        return Decomposition(host, host.edges,
                             [EmbeddedCopy(self.pattern, img)
                              for img in self.copies.get(side, [])])

    def compression(self, base: Compression) -> Compression:
        """The space's compression: `base`, on the space's vertices, with
        the compression of every switcher glued with a `beta` attached in
        glue order.

        Each beta maps its switcher's J nodes into `base.k` as a
        homomorphism agreeing with the base psi on shared roots.  K grows by
        fresh copies of each attached K minus its J part, and psi extends
        accordingly; the claimed width is the maximum over all parts.
        """
        k_edges = set(base.k.edges)
        k_n = base.k.n
        # -1 marks a vertex that only an attached compression maps
        psi = list(base.psi) + [-1] * (self.n - len(base.psi))
        d = base.d

        for sub, beta, sub_vmap in self.attached:
            sub_k = sub.k
            jn = sub.j_size
            fresh = {}
            for v in range(jn, sub_k.n):
                fresh[v] = k_n
                k_n += 1
            for u, v in sub_k.edges:
                if u < jn and v < jn:
                    continue  # J's edges are in base.k through beta
                uu = beta[u] if u < jn else fresh[u]
                vv = beta[v] if v < jn else fresh[v]
                if uu == vv:
                    raise InputError("beta merged adjacent K vertices")
                k_edges.add(norm_edge(uu, vv))
            for local_v, pk in enumerate(sub.psi):
                gv = sub_vmap[local_v]
                img = beta[pk] if pk < jn else fresh[pk]
                if psi[gv] == -1:
                    psi[gv] = img
                elif psi[gv] != img:
                    raise InputError(
                        f"psi conflict at shared vertex {gv}: "
                        f"{psi[gv]} vs {img}")
            d = max(d, sub.d)

        if -1 in psi:
            raise InputError("psi left a model vertex unmapped")
        return Compression(base.j_size, dict(base.f), Graph(k_n, k_edges),
                           tuple(psi), d)
