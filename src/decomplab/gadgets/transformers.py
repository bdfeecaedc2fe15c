"""Transformers: gadgets T making both H+T and H'+T decomposable, for H
regular of the pattern's degree gcd and H' an edge-bijective image of H.

Per vertex x of H, a twin-centre star switcher moves a bundle of middle
edges between x and its image; per edge of H, a six-cycle switcher walks the
edge across.  Both certificates fall out of the two ways of switching.
"""

from __future__ import annotations

from ..errors import DecompLabError, DomainError, InputError
from ..graphs import Graph, GraphMap, degree_gcd_of, norm_edge
from .compose import GadgetSpace
from .switchers import build_c6_switcher_general, build_k2r_switcher
from .types import CertifiedTransformer


def _pick_c6_switcher(f: Graph):
    """The width-0 bipartite six-cycle switcher where tau = 1 (its family
    scan refuses every other pattern), else the general one."""
    if f.is_bipartite():
        from .bipartite_c6 import build_c6_switcher_bipartite
        try:
            return build_c6_switcher_bipartite(f)
        except DecompLabError:
            pass
    return build_c6_switcher_general(f)


def _place_transformer(space: GadgetSpace, h: Graph, phi: GraphMap,
                       h_ids, hp_ids, star, c6, swap: bool) -> None:
    """Place a transformer for `h` and its image under `phi` into `space`,
    for the space's pattern.

    `h_ids` and `hp_ids` are the space vertices of h's and phi.target's
    blocks; every other vertex is fresh and neither leftover's edges join the
    space.  `star` and `c6` are the pattern's k2r and six-cycle switchers.
    The copies that cover T + H are recorded on the side `cert1`, those
    that cover T + H' on `cert2`; with `swap`, crosswise.
    """
    f = space.pattern
    r = degree_gcd_of(f)
    if f.e < 2:
        raise InputError("pattern needs at least two edges")
    if any(d != r for d in h.degrees()):
        raise DomainError(f"leftover must be {r}-regular")
    if phi.source != h:
        raise InputError("phi must map the given leftover")
    if not phi.is_edge_bijective():
        raise DomainError("phi must be an edge-bijective homomorphism")

    # middle vertices: z[x][y] sits between x and phi(x), tagged by the
    # neighbour y it will be walked towards
    z = {x: {y: space.fresh_one() for y in sorted(h.adj[x])}
         for x in range(h.n)}

    for x in range(h.n):
        leaves = tuple(z[x][y] for y in sorted(h.adj[x]))
        space.glue(star, leaves + (h_ids[x], hp_ids[phi.image[x]]), swap)
        for lv in leaves:
            space.add_edge(h_ids[x], lv)                 # towards h
            space.add_edge(hp_ids[phi.image[x]], lv)     # towards h'

    for a, b in sorted(h.edges):
        roots = (h_ids[a], h_ids[b], z[b][a],
                 hp_ids[phi.image[b]], hp_ids[phi.image[a]], z[a][b])
        # the first switching covers {xy, x'z_xy, y'z_yx}, the second
        # {x'y', xz_xy, yz_yx}
        space.glue(c6, roots, swap)


def build_transformer(f: Graph, h: Graph, phi: GraphMap) -> CertifiedTransformer:
    """Gadget transforming the leftover `h` into its edge-bijective image.

    `phi` maps h onto h'; the two graphs land on disjoint vertex blocks of
    the gadget universe and stay independent inside it.
    """
    space = GadgetSpace(f)
    h_ids = space.fresh(h.n)
    hp_ids = space.fresh(phi.target.n)
    _place_transformer(space, h, phi, h_ids, hp_ids,
                       build_k2r_switcher(f, degree_gcd_of(f)),
                       _pick_c6_switcher(f), swap=False)
    h_edges = frozenset(norm_edge(h_ids[a], h_ids[b]) for a, b in h.edges)
    hp_edges = frozenset(norm_edge(hp_ids[a], hp_ids[b])
                         for a, b in phi.target.edges)
    return CertifiedTransformer(space.graph(), h_edges, hp_edges,
                                space.finalize("cert1", h_edges),
                                space.finalize("cert2", hp_edges))
