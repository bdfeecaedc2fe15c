import hashlib
import random

import pytest

from decomplab import hamilton
from decomplab.divisibility import (check_divisibility, fix_edge_count,
                                    make_degree_divisible)
from decomplab.errors import DegreeError, DomainError
from decomplab.graphs import Graph, complete_graph, complete_bipartite, cycle_graph


def dense_random(rng, n, p):
    while True:
        g = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                      if rng.random() < p])
        if 2 * g.min_degree() > n:
            return g


def test_check_divisibility_examples():
    k3 = complete_graph(3)
    rep = check_divisibility(k3, complete_graph(7))
    assert rep.divisible
    rep = check_divisibility(k3, complete_graph(6))
    assert not rep.degree_divisible
    assert rep.degree_residues == {v: 1 for v in range(6)}
    rep = check_divisibility(cycle_graph(4), complete_bipartite(4, 4))
    assert rep.divisible


def test_make_degree_divisible_noop_cases():
    # K7 already 2-divisible
    h = make_degree_divisible(complete_graph(7), 2, {})
    assert h.e == 0
    # K6 with xi = 1 everywhere: degrees are already 5 = 1 mod 2
    h = make_degree_divisible(complete_graph(6), 2, {v: 1 for v in range(6)})
    assert h.e == 0


def test_make_degree_divisible_k6_to_even():
    g = complete_graph(6)
    h = make_degree_divisible(g, 2, {v: 0 for v in range(6)}, seed=1)
    assert all(d % 2 == 1 for d in h.degrees())
    assert h.edges <= g.edges


def test_make_degree_divisible_random_targets():
    rng = random.Random(21)
    for trial in range(6):
        r = rng.choice([2, 3])
        n = 24 if r == 2 else 40
        g = dense_random(rng, n, .8)
        xi = [rng.randrange(r) for _ in range(n)]
        xi[-1] = (xi[-1] - sum(xi)) % r
        h = make_degree_divisible(g, r, dict(enumerate(xi)), seed=trial)
        assert h.edges <= g.edges
        g2 = g.minus(h)
        for v in range(n):
            assert g2.degree(v) % r == xi[v], (trial, v)


def test_make_degree_divisible_keeps_its_gadget_placements():
    # H as placed by the set-based kernel before rank masks, with the order
    # reshuffled before every gadget
    g = dense_random(random.Random(5), 150, .8)
    assert (g.min_degree(), g.e) == (109, 8939)
    h = make_degree_divisible(g, 5, {v: 0 for v in range(150)}, seed=7)
    assert h.e == 4729
    digest = hashlib.sha256(repr(sorted(h.edges)).encode()).hexdigest()
    assert digest[:16] == "c6f964d58bbfdda3"


def test_make_degree_divisible_sum_precondition():
    with pytest.raises(DomainError):
        make_degree_divisible(complete_graph(6), 2, {0: 1})


def test_make_degree_divisible_degree_precondition():
    sparse = cycle_graph(10)
    with pytest.raises(DegreeError):
        make_degree_divisible(sparse, 2, {v: 0 for v in range(10)})


def test_fix_edge_count_noop():
    # K3 pattern, host edge count already correct mod 3: beta = 0
    g = complete_graph(10)  # e = 45 = 0 mod 3
    h = fix_edge_count(g, list(range(10)), complete_graph(3), 0)
    assert h.e == 0


def test_fix_edge_count_k10_one_cycle():
    g = complete_graph(10)
    h = fix_edge_count(g, list(range(10)), complete_graph(3), 1, seed=3)
    assert h.e % 3 == 1
    assert all(d % 2 == 0 for d in h.degrees())
    assert h.max_degree() <= 2 * 3 * 2
    assert h.edges <= g.edges


def test_fix_edge_count_r_odd_k4():
    # pattern K4: r = 3, e(F) = 6, valid targets need 3 | 2e
    rng = random.Random(4)
    g = dense_random(rng, 40, .93)
    target = 9
    h = fix_edge_count(g, list(range(40)), complete_graph(4), target, seed=1)
    assert h.e % 6 == target % 6
    assert all(d % 3 == 0 for d in h.degrees())
    assert h.max_degree() <= 2 * 6 * 3


def test_fix_edge_count_parity_precondition():
    with pytest.raises(DomainError):
        fix_edge_count(complete_graph(12), list(range(12)),
                       complete_graph(4), 1)  # 3 does not divide 2


def test_fix_edge_count_refuses_a_sparse_clique_part_before_searching(
        monkeypatch):
    # C4 on K16 minus the edges with u + v = 0 mod 3: the cycles run on the
    # first 15 vertices (15 is coprime to e(C4) = 4), whose min degree 9
    # passes Dirac (7.5) for the first of the 3 cycles needed but not for
    # the third (7.5 + 2*2), so the degree check must refuse before any search
    def no_search(*args, **kwargs):
        raise AssertionError("Hamilton search started")
    monkeypatch.setattr(hamilton, "hamilton_cycle", no_search)
    n = 16
    sparse = complete_graph(n).without_edges(
        [(a, b) for a in range(n) for b in range(a + 1, n) if (a + b) % 3 == 0])
    assert sparse.induced(range(15)).min_degree() == 9
    with pytest.raises(DegreeError, match=r"^clique part min degree 9 below "
                       r"11\.5 needed for 3 Hamilton cycles$"):
        fix_edge_count(sparse, list(range(n)), cycle_graph(4), 1)


def test_composition_yields_divisible():
    # degree repair then edge repair leaves a pattern-divisible graph
    rng = random.Random(8)
    k3 = complete_graph(3)
    for trial in range(4):
        g = dense_random(rng, 50, .9)
        h1 = make_degree_divisible(g, 2, {v: 0 for v in range(g.n)}, seed=trial)
        g1 = g.minus(h1)
        # removing H with e(H) = e(G1) mod e(F) zeroes the edge residue
        h2 = fix_edge_count(g1, list(range(g.n)), k3, g1.e, seed=trial)
        g2 = g1.minus(h2)
        assert check_divisibility(k3, g2).divisible
