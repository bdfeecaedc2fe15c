"""verify_decomposition's two paths: the array pass and the copy walk.

A valid certificate whose copies share one pattern is accepted by
the array pass alone; any other is walked copy by copy, and the verdict is
the walk's.  A seeded panel of single mutations of the greedy K140, C4
absorber and exact certificates checks both: the array pass must accept no
broken certificate, and every verdict must equal `_verify_by_walk`'s.
"""

import random
from functools import lru_cache

import pytest

from decomplab.gadgets.absorbers import build_absorber
from decomplab.graphio import parse_certificate, serialize_certificate
from decomplab.graphs import (Decomposition, EmbeddedCopy, Graph,
                              complete_graph, cycle_graph)
from decomplab.solver import (_valid_in_bulk, _verify_by_walk,
                              exact_decompose, greedy_decompose,
                              verify_decomposition)


@lru_cache(maxsize=None)
def certificate(name):
    if name == "greedy K3->K140":
        host = complete_graph(140)
        dec = greedy_decompose(complete_graph(3), host,
                               seed=1).as_decomposition(host)
        return parse_certificate(serialize_certificate(dec))
    if name == "exact K3->K45":
        return exact_decompose(complete_graph(3),
                               complete_graph(45)).decomposition
    absorber = build_absorber(cycle_graph(4), cycle_graph(4))
    return absorber.cert_a if name == "C4 absorber cert_a" else absorber.cert_ah


CERTIFICATES = ["greedy K3->K140", "exact K3->K45", "C4 absorber cert_a",
                "C4 absorber cert_ah"]


def _copies(dec, k, copy):
    copies = list(dec.copies)
    copies[k] = copy
    return Decomposition(dec.host, dec.target_edges, copies)


def _image(dec, k, image):
    c = dec.copies[k]
    return _copies(dec, k, EmbeddedCopy(c.pattern, tuple(image)))


def drop_copy(dec, k, rng):
    return Decomposition(dec.host, dec.target_edges,
                         dec.copies[:k] + dec.copies[k + 1:])


def duplicate_copy(dec, k, rng):
    copies = list(dec.copies)
    copies.insert(rng.randrange(len(copies) + 1), copies[k])
    return Decomposition(dec.host, dec.target_edges, copies)


def out_of_range_vertex(dec, k, rng):
    im = list(dec.copies[k].image)
    im[rng.randrange(len(im))] = rng.choice((-1, dec.host.n,
                                             dec.host.n + 5))
    return _image(dec, k, im)


def repeated_vertex(dec, k, rng):
    im = list(dec.copies[k].image)
    a, b = rng.sample(range(len(im)), 2)
    im[a] = im[b]
    return _image(dec, k, im)


def through_a_non_edge(dec, k, rng):
    # a vertex moved onto one that misses the host edge the copy needs
    c = dec.copies[k]
    im = list(c.image)
    p = rng.randrange(len(im))
    nbrs = [im[q] for q in c.pattern.adj[p]]
    misses = [x for x in range(dec.host.n) if x not in im
              and not all(dec.host.has_edge(x, y) for y in nbrs)]
    if not misses:          # a complete host: drop one of its edges
        return Decomposition(dec.host.without_edges([min(c.edge_image())]),
                             dec.target_edges, dec.copies)
    im[p] = rng.choice(misses)
    return _image(dec, k, im)


def outside_the_target(dec, k, rng):
    gone = rng.choice(sorted(dec.copies[k].edge_image()))
    return Decomposition(dec.host, dec.target_edges - {gone}, dec.copies)


def different_pattern(dec, k, rng):
    c = dec.copies[k]
    other = Graph(c.pattern.n, sorted(c.pattern.edges)[1:])
    return _copies(dec, k, EmbeddedCopy(other, c.image))


def equal_pattern_object(dec, k, rng):
    # equal by value, another object: still a valid certificate
    c = dec.copies[k]
    twin = Graph(c.pattern.n, c.pattern.edges)
    return _copies(dec, k, EmbeddedCopy(twin, c.image))


MUTATIONS = [drop_copy, duplicate_copy, out_of_range_vertex, repeated_vertex,
             through_a_non_edge, outside_the_target, different_pattern,
             equal_pattern_object]


@pytest.mark.parametrize("name", CERTIFICATES)
def test_a_valid_certificate_passes_the_array_pass_alone(name):
    dec = certificate(name)
    assert _valid_in_bulk(dec)
    assert verify_decomposition(dec) == _verify_by_walk(dec) == (True, None)


@pytest.mark.parametrize("mutate", MUTATIONS, ids=lambda m: m.__name__)
@pytest.mark.parametrize("name", CERTIFICATES)
def test_each_mutation_gets_the_walks_verdict(name, mutate):
    dec = certificate(name)
    rng = random.Random(f"{name} {mutate.__name__}")
    valid = mutate is equal_pattern_object
    for k in [0, len(dec.copies) - 1] + rng.sample(range(len(dec.copies)), 3):
        bad = mutate(dec, k, rng)
        walked = _verify_by_walk(bad)
        assert walked[0] == valid
        assert _valid_in_bulk(bad) == valid
        assert verify_decomposition(bad) == walked


def test_a_non_int_vertex_is_left_to_the_walk():
    # 1.0 equals 1 as a set member, yet only an int is a vertex
    dec = certificate("exact K3->K45")
    im = dec.copies[0].image
    for x in (float(im[1]), im[1] + 0.5):
        bad = _image(dec, 0, (im[0], x, im[2]))
        assert not _valid_in_bulk(bad)
        assert verify_decomposition(bad) == _verify_by_walk(bad) == (
            False, "copy 0 is not a valid embedding")


@pytest.mark.parametrize("image", [(0, 1.0, 2), (0, True, 2)],
                         ids=["float", "bool"])
def test_bool_and_float_vertex_ids_are_rejected(image):
    # True is an int to numpy, so the array pass scans the types first
    k3 = complete_graph(3)
    dec = Decomposition(k3, k3.edges, [EmbeddedCopy(k3, image)])
    assert not _valid_in_bulk(dec)
    assert verify_decomposition(dec) == _verify_by_walk(dec) == (
        False, "copy 0 is not a valid embedding")
