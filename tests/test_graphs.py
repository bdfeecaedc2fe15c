import copy
import dataclasses
import pickle
import random

import pytest

from decomplab.errors import InputError
from decomplab.graphs import (Graph, GraphMap, EmbeddedCopy, complete_graph,
                              complete_bipartite, complete_multipartite,
                              cycle_graph, path_graph, disjoint_union)


def test_basic_counts():
    g = complete_graph(5)
    assert len(g) == 5 and g.e == 10
    assert g.degrees() == [4] * 5
    assert complete_bipartite(3, 4).e == 12
    assert cycle_graph(6).degrees() == [2] * 6
    assert path_graph(2).e == 2 and path_graph(2).n == 3


def test_loops_and_range_rejected():
    with pytest.raises(InputError):
        Graph(2, [(0, 0)])
    with pytest.raises(InputError):
        Graph(2, [(0, 2)])


def test_duplicate_edges_collapse():
    g = Graph(3, [(0, 1), (1, 0)])
    assert g.e == 1


def test_induced_and_minus():
    g = complete_graph(4)
    h = g.induced([0, 1, 3])
    assert h.n == 3 and h.e == 3
    g2 = g.without_edges([(0, 1)])
    assert g2.e == 5 and not g2.has_edge(0, 1)


def test_without_vertices_takes_a_generator():
    # the vertices to drop are read once, so an iterator drops all of them
    p = path_graph(4)
    assert p.without_vertices(iter([0, 1])) == path_graph(2)
    assert p.without_vertices(v for v in (0, 4)) == path_graph(2)
    assert p.without_vertices(v for v in (1, 3)) == Graph(3, [])


def test_components_and_bipartition():
    g = disjoint_union(cycle_graph(4), path_graph(1))
    assert len(g.components()) == 2
    a, b = g.bipartition()
    assert all((u in a) != (v in a) for u, v in g.edges)
    assert cycle_graph(5).bipartition() is None
    cyc = cycle_graph(5).odd_cycle()
    assert cyc is not None and len(cyc) % 2 == 1


def _random_graphs():
    rng = random.Random(1603)
    for _ in range(300):
        n = rng.randrange(1, 40)
        p = rng.random() * 0.25
        yield Graph(n, [(a, b) for a in range(n) for b in range(a + 1, n)
                        if rng.random() < p])
    # a star with one edge between its last two leaves: one triangle, far
    # into the breadth-first order
    for n in (20000, 80000):
        yield Graph(n, [(0, v) for v in range(1, n)] + [(n - 2, n - 1)])


def test_odd_cycle_and_bipartition_agree():
    for g in _random_graphs():
        cyc, sides = g.odd_cycle(), g.bipartition()
        assert (cyc is None) == (sides is not None)
        if sides is not None:
            a, b = sides
            assert a | b == set(range(g.n)) and not a & b
            assert all((u in a) != (v in a) for u, v in g.edges)
            # each component's lowest vertex is on side A
            assert all(min(c) in a for c in g.components())
            continue
        assert len(cyc) % 2 == 1 and len(set(cyc)) == len(cyc) >= 3
        assert all(g.has_edge(cyc[i - 1], cyc[i]) for i in range(len(cyc)))


def test_bridges():
    g = path_graph(3)
    assert g.bridges() == [(0, 1), (1, 2), (2, 3)]
    assert cycle_graph(6).bridges() == []
    # two triangles joined by a bridge
    tri2 = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
    assert tri2.bridges() == [(2, 3)]


def test_complete_multipartite():
    g = complete_multipartite([2, 3, 4])
    assert g.n == 9
    assert g.e == 2 * 3 + 2 * 4 + 3 * 4
    comp = g.complement()
    assert sorted(len(c) for c in comp.components()) == [2, 3, 4]


def test_graphmap_modes():
    c6 = cycle_graph(6)
    ident = GraphMap(c6, c6, tuple(range(6)))
    assert ident.is_edge_bijective()
    # fold C6 onto a single edge via its 2-colouring
    k2 = Graph(2, [(0, 1)])
    fold = GraphMap(c6, k2, (0, 1, 0, 1, 0, 1))
    assert fold.is_homomorphism()
    assert not fold.is_edge_bijective()


def test_embedded_copy_validity():
    k3 = complete_graph(3)
    k4 = complete_graph(4)
    good = EmbeddedCopy(k3, (0, 1, 2))
    assert good.is_valid(k4)
    assert good.edge_image() == frozenset({(0, 1), (0, 2), (1, 2)})
    assert not EmbeddedCopy(k3, (0, 0, 2)).is_valid(k4)
    c4 = cycle_graph(4)
    assert not EmbeddedCopy(c4, (0, 1, 3, 2)).is_valid(k4) or True
    # C4 image 0-1-3-2 has edges 01,13,32,20 -- all in K4, so valid
    assert EmbeddedCopy(c4, (0, 1, 3, 2)).is_valid(k4)


def test_relabel_roundtrip():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    perm = [2, 0, 3, 1]
    h = g.relabel(perm)
    inv = [0] * 4
    for v, p in enumerate(perm):
        inv[p] = v
    assert h.relabel(inv) == g


@pytest.mark.parametrize("edges, message", [
    ([(0, 1), (2, 2)], "loop at vertex 2 is not allowed"),
    ([(0, 1), (1, 3)], "edge (1,3) out of range for 3 vertices"),
    ([(0, 1), (-1, 2)], "edge (-1,2) out of range for 3 vertices"),
], ids=["loop", "out-of-range", "negative"])
def test_constructor_names_the_defect(edges, message):
    with pytest.raises(InputError) as info:
        Graph(3, edges)
    assert str(info.value) == message


@pytest.mark.parametrize("edges, message", [
    ([(5, 7), (2, 2), (1, 9), (0, 1), (4, -3)],
     "edge (-3,4) out of range for 6 vertices"),
    ([(5, 7), (2, 2), (1, 9), (0, 1)], "edge (1,9) out of range for 6 vertices"),
    ([(5, 7), (0, 1), (2, 2), (3, 3)], "loop at vertex 2 is not allowed"),
])
def test_constructor_names_the_lowest_bad_edge(edges, message):
    # the same edge is named whatever the input order
    for k in range(len(edges)):
        with pytest.raises(InputError) as info:
            Graph(6, edges[k:] + edges[:k])
        assert str(info.value) == message


def test_constructor_takes_a_generator():
    edges = [(i, (3 * i + 5) % 17) for i in range(17) if (3 * i + 5) % 17 != i]
    g = Graph(17, edges)
    assert Graph(17, (e for e in edges)) == g
    assert Graph(17, ((v, u) for u, v in edges)) == g
    assert all(u < v for u, v in g.edges)
    with pytest.raises(InputError):
        Graph(17, ((u, 17) for u, _ in edges))


@pytest.mark.parametrize("edges, message", [
    ([(0, 1.5), (True, 2)], "vertex id 1.5 is not an int"),
    ([(0, 1), (True, 2)], "vertex id True is not an int"),
    ([(0, 1.0)], "vertex id 1.0 is not an int"),
    ([("0", "1")], "vertex id '0' is not an int"),
    ([(0, None)], "vertex ids must be ints"),
], ids=["float-and-bool", "bool", "integral-float", "str", "none"])
def test_constructor_refuses_non_int_vertex_ids(edges, message):
    # a bool or a float equals an int id, yet only an int is a vertex
    with pytest.raises(InputError) as info:
        Graph(3, edges)
    assert str(info.value) == message


@pytest.mark.parametrize("n", [2.5, 3.0, True, "3"],
                         ids=["float", "integral-float", "bool", "str"])
def test_constructor_refuses_a_vertex_count_that_is_not_an_int(n):
    # Graph(2.5, ...) used to construct and fail later in degrees();
    # Graph(True, []) kept n = True
    with pytest.raises(InputError) as info:
        Graph(n, [(0, 1)] if n != "3" else [])
    assert str(info.value) == f"vertex_count {n!r} is not an int"


def test_constructor_keeps_a_normal_tuple_and_still_checks_it():
    e, reversed_, listed = (0, 1), (2, 1), [0, 2]
    g = Graph(3, [e, reversed_, listed])
    assert g.edges == {(0, 1), (1, 2), (0, 2)}
    assert all(type(x) is tuple for x in g.edges)
    kept = {id(x) for x in g.edges}
    assert id(e) in kept and id(reversed_) not in kept
    # a kept tuple is validated like any other edge
    with pytest.raises(ValueError):
        Graph(3, [(0, 1), (0, 1, 2)])
    with pytest.raises(InputError, match="loop at vertex 1"):
        Graph(3, [(0, 1), (1, 1)])
    with pytest.raises(InputError, match=r"edge \(0,3\) out of range"):
        Graph(3, [(0, 1), (0, 3)])
    with pytest.raises(InputError, match="vertex id 1.5 is not an int"):
        Graph(3, [(0, 1.5)])


def test_embedded_copy_is_a_frozen_value():
    k3 = complete_graph(3)
    c = EmbeddedCopy(k3, (2, 0, 1))
    assert (c.pattern, c.image) == (k3, (2, 0, 1))
    assert c == EmbeddedCopy(pattern=complete_graph(3), image=(2, 0, 1))
    assert hash(c) == hash(EmbeddedCopy(complete_graph(3), (2, 0, 1)))
    assert c != EmbeddedCopy(k3, (0, 1, 2))
    assert repr(c) == "EmbeddedCopy(pattern=Graph(n=3, e=3), image=(2, 0, 1))"
    moved = dataclasses.replace(c, image=(0, 1, 2))
    assert moved is not c and moved == EmbeddedCopy(k3, (0, 1, 2))
    assert c.image == (2, 0, 1)
    for twin in (pickle.loads(pickle.dumps(c)), copy.deepcopy(c)):
        assert twin is not c and twin == c and hash(twin) == hash(c)
        assert twin.image == (2, 0, 1) and twin.pattern.edges == k3.edges
    for name in ("pattern", "image"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(c, name, None)
    assert c.image == (2, 0, 1)
    assert not hasattr(c, "__dict__")
