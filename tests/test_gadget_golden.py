"""Golden outputs of the gadget builders.

Each build is pinned by its vertex count and a digest of its gadget edges
and both certificates' images, all sorted, so a change to any builder that
moves a vertex, an edge or a certificate copy shows here.
"""

import hashlib

import pytest

from decomplab.gadgets.absorbers import build_absorber
from decomplab.gadgets.bipartite_c6 import build_c6_switcher_bipartite
from decomplab.gadgets.switchers import (build_c4_switcher,
                                         build_c6_switcher_general,
                                         build_external_teleporter,
                                         build_k2r_switcher)
from decomplab.gadgets.transformers import build_transformer
from decomplab.graphs import (GraphMap, complete_graph, cycle_graph,
                              disjoint_union, path_graph)

K3, C4, C5 = complete_graph(3), cycle_graph(4), cycle_graph(5)

BUILDS = {
    "c4_switcher_k3": lambda: build_c4_switcher(K3),
    "k2r_switcher_k3_4": lambda: build_k2r_switcher(K3, 4),
    "c6_switcher_general_c4": lambda: build_c6_switcher_general(C4),
    "c6_switcher_bipartite_p2":
        lambda: build_c6_switcher_bipartite(path_graph(2)),
    "teleporter_external_k2_p2": lambda: build_external_teleporter(
        disjoint_union(complete_graph(2), path_graph(2))),
    "transformer_c4_c5": lambda: build_transformer(
        C4, C5, GraphMap(C5, C5, tuple(range(5)))),
    "absorber_c4_c4": lambda: build_absorber(C4, C4),
}


def _parts(gadget):
    """(gadget graph, first certificate, second certificate)."""
    if hasattr(gadget, "model"):
        return gadget.model.graph, gadget.cert1, gadget.cert2
    if hasattr(gadget, "t"):
        return gadget.t, gadget.cert_h, gadget.cert_hp
    return gadget.a, gadget.cert_a, gadget.cert_ah


@pytest.mark.parametrize("name, vertices, digest", [
    ("c4_switcher_k3", 7, "adb0625b383da7e3"),
    ("k2r_switcher_k3_4", 22, "651cf5ebbe8d4ac1"),
    ("c6_switcher_general_c4", 40, "35fffabf0425bb97"),
    ("c6_switcher_bipartite_p2", 16, "3a902c07fcee2dee"),
    ("teleporter_external_k2_p2", 7, "e3d890c4f3c516b9"),
    ("transformer_c4_c5", 195, "dcbb84c504c7bb17"),
    ("absorber_c4_c4", 3049, "9fbeb52188a902a2"),
])
def test_gadget_build_is_golden(name, vertices, digest):
    g, cert1, cert2 = _parts(BUILDS[name]())
    key = (sorted(g.edges), sorted(c.image for c in cert1.copies),
           sorted(c.image for c in cert2.copies))
    assert g.n == vertices
    assert hashlib.sha256(repr(key).encode()).hexdigest()[:16] == digest


@pytest.mark.parametrize("name, k_vertices, width, digest", [
    ("c4_switcher_k3", 5, 4, "e68d92e209b6636e"),
    ("k2r_switcher_k3_4", 13, 4, "b3a626e8c96d5cf7"),
    ("c6_switcher_general_c4", 8, 3, "34ad7c5aa7b9d170"),
    ("c6_switcher_bipartite_p2", 6, 0, "c49312a3fdc8e534"),
    ("teleporter_external_k2_p2", 4, 0, "7c682f94e807e24f"),
])
def test_switcher_compression_is_golden(name, k_vertices, width, digest):
    # the builders number K's colour nodes themselves; verify_compression
    # would accept any numbering, so the numbering is pinned here
    sw = BUILDS[name]()
    c = sw.compression
    roots = sorted((r, c.psi[r]) for r in sw.model.roots)
    key = (c.j_size, roots, sorted(c.k.edges), c.psi, c.d)
    assert (c.k.n, c.d) == (k_vertices, width)
    assert hashlib.sha256(repr(key).encode()).hexdigest()[:16] == digest
