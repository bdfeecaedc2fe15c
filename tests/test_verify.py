"""verify_decomposition against the per-copy reference loop it replaced.

The reference checks each copy with `EmbeddedCopy.is_valid(host)` and then
walks `edge_image()`; the verifier under test must give exactly its
`(ok, message)` on valid certificates and on every mutation of them.
"""

import random
from functools import lru_cache

import pytest

from decomplab.gadgets.absorbers import build_absorber
from decomplab.graphs import (Decomposition, EmbeddedCopy, Graph,
                              complete_graph, cycle_graph, path_graph)
from decomplab.solver import exact_decompose, greedy_decompose, verify_decomposition


def reference_verify(dec):
    if not dec.copies:
        if dec.target_edges:
            e = min(dec.target_edges)
            return False, f"uncovered edge {e}"
        return True, None
    pattern = dec.copies[0].pattern
    covered = set()
    same_patterns = {id(pattern)}
    for k, c in enumerate(dec.copies):
        if id(c.pattern) not in same_patterns:
            if c.pattern != pattern:
                return False, f"copy {k} has a different pattern"
            same_patterns.add(id(c.pattern))
        if not c.is_valid(dec.host):
            return False, f"copy {k} is not a valid embedding"
        for e in c.edge_image():
            if e in covered:
                return False, f"edge {e} covered twice"
            if e not in dec.target_edges:
                return False, f"edge {e} outside the target set"
            covered.add(e)
    if covered != dec.target_edges:
        e = min(dec.target_edges - covered)
        return False, f"uncovered edge {e}"
    return True, None


@lru_cache(maxsize=None)
def certificate(name):
    if name == "exact K3->K9":
        return exact_decompose(complete_graph(3), complete_graph(9)).decomposition
    if name == "greedy K3->K40":
        host = complete_graph(40)
        out = greedy_decompose(complete_graph(3), host, seed=7)
        return out.as_decomposition(host)
    absorber = build_absorber(cycle_graph(4), cycle_graph(4))
    return absorber.cert_a if name == "C4 absorber cert_a" else absorber.cert_ah


CERTIFICATES = ["exact K3->K9", "greedy K3->K40", "C4 absorber cert_a",
                "C4 absorber cert_ah"]


def _with_image(dec, k, image):
    c = dec.copies[k]
    copies = list(dec.copies)
    copies[k] = EmbeddedCopy(c.pattern, tuple(image))
    return Decomposition(dec.host, dec.target_edges, copies)


def drop_copy(dec, k):
    return Decomposition(dec.host, dec.target_edges,
                         dec.copies[:k] + dec.copies[k + 1:])


def duplicate_copy(dec, k):
    return Decomposition(dec.host, dec.target_edges,
                         dec.copies + [dec.copies[k]])


def repeat_vertex(dec, k):
    # a non-adjacent pair where the pattern has one (C4), so that no loop
    # edge gives the repetition away
    c = dec.copies[k]
    n = c.pattern.n
    a, b = next(((a, b) for a in range(n) for b in range(a + 1, n)
                 if not c.pattern.has_edge(a, b)), (0, n - 1))
    im = list(c.image)
    im[a] = im[b]
    return _with_image(dec, k, im)


def vertex_past_the_end(dec, k):
    im = dec.copies[k].image
    return _with_image(dec, k, im[:-1] + (dec.host.n,))


def negative_vertex(dec, k):
    return _with_image(dec, k, (-1,) + dec.copies[k].image[1:])


def edge_outside_host(dec, k):
    gone = min(dec.copies[k].edge_image())
    return Decomposition(dec.host.without_edges([gone]), dec.target_edges,
                         dec.copies)


def edge_outside_target(dec, k):
    gone = max(dec.copies[k].edge_image())
    return Decomposition(dec.host, dec.target_edges - {gone}, dec.copies)


def foreign_pattern(dec, k):
    c = dec.copies[k]
    other = Graph(c.pattern.n, sorted(c.pattern.edges)[1:])
    copies = list(dec.copies)
    copies[k] = EmbeddedCopy(other, c.image)
    return Decomposition(dec.host, dec.target_edges, copies)


def twin_pattern_and_host(dec, k):
    # equal by value, other objects: still a valid certificate.  The twin
    # host is the certificate's own, so its target is no longer the host's
    # edge set object
    c = dec.copies[k]
    copies = list(dec.copies)
    copies[k] = EmbeddedCopy(Graph(c.pattern.n, c.pattern.edges), c.image)
    return Decomposition(Graph(dec.host.n, dec.host.edges), dec.target_edges,
                         copies)


MUTATIONS = [drop_copy, duplicate_copy, repeat_vertex, vertex_past_the_end,
             negative_vertex, edge_outside_host, edge_outside_target,
             foreign_pattern, twin_pattern_and_host]


@pytest.mark.parametrize("name", CERTIFICATES)
def test_valid_certificates_agree(name):
    dec = certificate(name)
    assert verify_decomposition(dec) == reference_verify(dec) == (True, None)
    empty = Decomposition(dec.host, dec.target_edges, [])
    assert verify_decomposition(empty) == reference_verify(empty)


@pytest.mark.parametrize("mutate", MUTATIONS, ids=lambda m: m.__name__)
@pytest.mark.parametrize("name", CERTIFICATES)
def test_each_mutation_gets_the_reference_verdict(name, mutate):
    dec = certificate(name)
    last = len(dec.copies) - 1
    for k in (0, last // 2, last):
        bad = mutate(dec, k)
        got = verify_decomposition(bad)
        assert got == reference_verify(bad)
        assert got[0] == (mutate is twin_pattern_and_host)


@pytest.mark.parametrize("name", CERTIFICATES)
def test_stacked_mutations_get_the_reference_verdict(name):
    # several defects at once: the first one named must be the same
    dec = certificate(name)
    rng = random.Random(name)
    for _ in range(40):
        bad = dec
        for mutate in rng.sample(MUTATIONS, 2):
            bad = mutate(bad, rng.randrange(len(bad.copies)))
        assert verify_decomposition(bad) == reference_verify(bad)


def test_empty_pattern_copies_agree():
    host = complete_graph(4)
    empty = Graph(0, [])
    for target in (frozenset(), frozenset({(0, 1)})):
        dec = Decomposition(host, target, [EmbeddedCopy(empty, ())])
        assert verify_decomposition(dec) == reference_verify(dec)
    point = path_graph(0)
    for image in [(0,), (4,), (-1,)]:
        dec = Decomposition(host, frozenset(),
                            [EmbeddedCopy(point, image)])
        assert verify_decomposition(dec) == reference_verify(dec)
