import random
from fractions import Fraction
from itertools import combinations, permutations, product
from math import gcd

import pytest

from decomplab.errors import (DomainError, InputError, ResourceError,
                              SizeGuardError)
from decomplab.graphs import (Graph, complete_graph, complete_bipartite,
                              cycle_graph, path_graph, disjoint_union)
from decomplab.invariants import (THETA_UNDEFINED, bipartite_invariants,
                                  chi_colouring, chromatic_number, cn_tuples,
                                  colourable_with, colouring_invariants,
                                  degree_gcd,
                                  is_c4_supporting, proper_colourings,
                                  rooted_degeneracy, star_counts, tau_of)


# -- independent oracles ------------------------------------------------------


def oracle_colourings(g, s):
    """Brute force over all colour assignments."""
    for c in product(range(1, s + 1), repeat=g.n):
        if all(c[u] != c[v] for u, v in g.edges):
            yield c


def oracle_theta(g):
    chi = chromatic_number(g)
    assert chi >= 3
    diffs = set()
    for c in oracle_colourings(g, chi):
        for v in range(g.n):
            if c[v] != chi:
                continue
            n1 = sum(1 for u in g.adj[v] if c[u] == 1)
            n2 = sum(1 for u in g.adj[v] if c[u] == 2)
            diffs.add(n1 - n2)
    nz = [abs(d) for d in diffs if d]
    if not nz:
        return 2
    out = 0
    for d in nz:
        out = gcd(out, d)
    return out


def oracle_rooted_degeneracy(k, roots):
    rest = [v for v in range(k.n) if v not in set(roots)]
    best = None
    for order in permutations(rest):
        placed = set(roots)
        worst = 0
        for v in order:
            worst = max(worst, sum(1 for u in k.adj[v] if u in placed))
            placed.add(v)
        best = worst if best is None else min(best, worst)
    return best if best is not None else 0


def random_bipartite(rng, max_n=14):
    s = rng.randint(1, max_n // 2)
    t = rng.randint(1, max_n - s)
    edges = [(i, s + j) for i in range(s) for j in range(t)
             if rng.random() < rng.uniform(.3, .9)]
    g = Graph(s + t, edges)
    keep = [v for v in range(g.n) if g.degree(v) > 0]
    return g.induced(keep)


# -- degree gcd ---------------------------------------------------------------


def test_degree_gcd_examples():
    assert degree_gcd(cycle_graph(4)) == 2
    assert degree_gcd(complete_bipartite(3, 4)) == 1
    assert degree_gcd(complete_graph(5)) == 4


def test_degree_gcd_isolated_rejected():
    with pytest.raises(InputError):
        degree_gcd(Graph(3, [(0, 1)]))


# -- chromatic number ---------------------------------------------------------


def test_chromatic_basics():
    assert chromatic_number(complete_graph(5)) == 5
    assert chromatic_number(cycle_graph(5)) == 3
    assert chromatic_number(cycle_graph(6)) == 2
    assert chromatic_number(complete_bipartite(3, 3)) == 2
    assert chromatic_number(Graph(4, [])) == 1
    # wheel on 6 spokes: odd wheel is 4-chromatic
    wheel = Graph(6, [(i, (i % 5) + 1) for i in range(1, 6)] +
                  [(0, i) for i in range(1, 6)])
    assert chromatic_number(wheel) == 4


def test_chromatic_number_of_a_long_cycle():
    # the colouring search keeps its own stack, one entry per coloured
    # vertex, so a long cycle does not exhaust the interpreter's recursion
    assert chromatic_number(cycle_graph(2001)) == 3


def _scan_colourable_with(g, k):
    """The DSATUR rule with a full scan per step: each next vertex is the
    minimum of (-saturation, -degree, v) over all uncoloured vertices."""
    colour = [0] * g.n
    stack, used = [], 0
    while len(stack) < g.n:
        v = min((v for v in range(g.n) if not colour[v]),
                key=lambda v: (-len({colour[u] for u in g.adj[v]} - {0}),
                               -len(g.adj[v]), v))
        taken = {colour[u] for u in g.adj[v]}
        stack.append((v, iter([c for c in range(1, min(used + 1, k) + 1)
                               if c not in taken]), used))
        while True:
            v, untried, used = stack[-1]
            colour[v] = next(untried, 0)
            if colour[v]:
                used = max(used, colour[v])
                break
            stack.pop()
            if not stack:
                return False
    return True


def test_colourable_with_matches_the_scan_rule():
    # the small graphs rarely make DSATUR backtrack; the larger sparse ones
    # do, and they catch colour counts that are not undone
    rng = random.Random(5)
    for trial in range(420):
        small = trial < 300
        n = rng.randint(1, 9) if small else rng.randint(15, 30)
        p = rng.uniform(.15, .85) if small else rng.uniform(.2, .5)
        g = Graph(n, [(u, v) for u, v in combinations(range(n), 2)
                      if rng.random() < p])
        for k in range(1, 7):
            assert colourable_with(g, k) == _scan_colourable_with(g, k), \
                (sorted(g.edges), k)


def test_chromatic_matches_oracle_random():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(3, 7)
        g = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                      if rng.random() < .5])
        chi = chromatic_number(g)
        assert any(True for _ in oracle_colourings(g, chi))
        if chi > 1:
            assert not any(True for _ in oracle_colourings(g, chi - 1))


# -- bipartite invariants -----------------------------------------------------


def test_tau_kst_is_gcd():
    for s in range(1, 6):
        for t in range(s, 6):
            if s + t <= 2:
                continue
            inv = bipartite_invariants(complete_bipartite(s, t))
            assert inv.tau == gcd(s, t)


def test_tau_one_with_edge_outside_c4():
    # a path has edges in no 4-cycle, so tau must be 1
    assert bipartite_invariants(path_graph(3)).tau == 1


def test_c6_invariants():
    inv = bipartite_invariants(cycle_graph(6))
    assert inv.tau_tilde == 6
    assert inv.bridge_edges == []
    assert inv.tau == 1  # no edge of C6 lies in a 4-cycle


def test_c4_tau_two():
    inv = bipartite_invariants(cycle_graph(4))
    assert inv.tau == 2 and inv.degree_gcd == 2 and inv.tau_tilde == 4


def test_non_bipartite_rejected_with_odd_cycle():
    with pytest.raises(DomainError) as exc:
        bipartite_invariants(complete_graph(3))
    assert "odd cycle" in str(exc.value)


def test_fact_divisibility_chain_random():
    # tau | gcd and gcd | tau_tilde on random bipartite graphs
    rng = random.Random(5)
    done = 0
    while done < 40:
        g = random_bipartite(rng)
        if g.e < 2:
            continue
        inv = bipartite_invariants(g)
        assert inv.degree_gcd % inv.tau == 0
        assert inv.tau_tilde % inv.degree_gcd == 0
        done += 1


def connected_subset_tau(g):
    """gcd of e(g[X]) over the X that are not C4-supporting and induce a
    connected subgraph with an edge."""
    t = 0
    for mask in range(1, 1 << g.n):
        sub = g.induced([v for v in range(g.n) if mask >> v & 1])
        if (sub.e and len(sub.components()) == 1
                and not is_c4_supporting(g, mask)):
            t = gcd(t, sub.e)
            if t == 1:
                break
    return t


def test_connected_subset_equivalence_random():
    rng = random.Random(6)
    done = 0
    while done < 25:
        g = random_bipartite(rng, max_n=11)
        if g.e < 2:
            continue
        assert tau_of(g) == connected_subset_tau(g)
        done += 1


def test_subset_guard_fires():
    with pytest.raises(SizeGuardError):
        tau_of(complete_bipartite(14, 14))


# -- colouring invariants -----------------------------------------------------


def test_theta_k5_convention():
    inv = colouring_invariants(complete_graph(5))
    assert inv.theta == 2
    assert oracle_theta(complete_graph(5)) == 2


def test_theta_k4_minus_edge():
    g = complete_graph(4).without_edges([(0, 1)])
    inv = colouring_invariants(g)
    assert inv.theta == 1
    assert oracle_theta(g) == 1


def test_theta_bipartite_undefined():
    assert colouring_invariants(cycle_graph(6)).theta is THETA_UNDEFINED


def test_chi_vx_cliques():
    for r in (4, 5):
        inv = colouring_invariants(complete_graph(r))
        assert inv.chi_vx == Fraction(r - 1)
        # cross-check sigma(K_r, v) = 1 by brute force
        chi = r
        best = None
        for c in oracle_colourings(complete_graph(r), chi):
            if c[0] != chi:
                continue
            n1 = sum(1 for u in range(1, r) if c[u] == 1)
            best = n1 if best is None else min(best, n1)
        assert best == 1


def test_chi_vx_bipartite_zero():
    assert colouring_invariants(cycle_graph(4)).chi_vx == 0


def test_chi_cr():
    # K_r: sigma = 1, chi_cr = (r-1) r/(r-1) = r
    inv = colouring_invariants(complete_graph(4))
    assert inv.chi_cr == Fraction(4)
    assert inv.sigma == 1


def test_theta_relabel_invariant():
    rng = random.Random(9)
    g = Graph(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (3, 5), (1, 4)])
    base = colouring_invariants(g).theta
    for _ in range(5):
        perm = list(range(6))
        rng.shuffle(perm)
        assert colouring_invariants(g.relabel(perm)).theta == base


def test_colouring_guard():
    with pytest.raises(SizeGuardError):
        colouring_invariants(complete_bipartite(11, 11).with_edges([(0, 1)]),
                             guard=20)


def test_colouring_guard_comes_before_the_chromatic_number(monkeypatch):
    def no_search(g):
        raise AssertionError("chromatic_number ran before the guard")

    monkeypatch.setattr("decomplab.invariants.chromatic_number", no_search)
    with pytest.raises(SizeGuardError):
        colouring_invariants(cycle_graph(21))
    with pytest.raises(SizeGuardError):
        cn_tuples(cycle_graph(21), 3)


# -- CN tuples ----------------------------------------------------------------


def test_cn_k3_s3():
    ts = {t.degrees for t in cn_tuples(complete_graph(3), 3)}
    assert ts == {(1, 1)}


def test_cn_k3_s4():
    ts = {t.degrees for t in cn_tuples(complete_graph(3), 4)}
    assert (1, 1, 0) in ts and (1, 0, 1) in ts and (0, 1, 1) in ts


def test_cn_single_edge():
    ts = {t.degrees for t in cn_tuples(Graph(2, [(0, 1)]), 2)}
    assert ts == {(1,)}


def test_cn_requires_enough_colours():
    with pytest.raises(DomainError):
        cn_tuples(complete_graph(3), 2)


def test_cn_witnesses_valid():
    for t in cn_tuples(complete_graph(4), 5):
        c = t.witness_colouring
        g = complete_graph(4)
        assert all(c[u] != c[v] for u, v in g.edges)
        assert c[t.witness_vertex] == 5


# -- rooted degeneracy --------------------------------------------------------


def test_rooted_degeneracy_examples():
    d, order = rooted_degeneracy(complete_graph(4), set())
    assert d == 3
    star = Graph(6, [(0, i) for i in range(1, 6)])
    d, order = rooted_degeneracy(star, {0})
    assert d == 1 and sorted(order) == [1, 2, 3, 4, 5]


def test_rooted_degeneracy_roots_only():
    g = complete_graph(5)
    assert rooted_degeneracy(g, range(5))[0] == 0


def test_rooted_degeneracy_ordering_witness():
    g = Graph(7, [(0, 1), (1, 2), (2, 3), (3, 0), (2, 4), (4, 5), (5, 6), (6, 4)])
    d, order = rooted_degeneracy(g, {0})
    placed = set([0])
    for v in order:
        assert sum(1 for u in g.adj[v] if u in placed) <= d
        placed.add(v)


def test_rooted_degeneracy_matches_bruteforce():
    rng = random.Random(13)
    for _ in range(15):
        n = rng.randint(2, 7)
        g = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                      if rng.random() < .55])
        roots = {v for v in range(n) if rng.random() < .3}
        assert rooted_degeneracy(g, roots)[0] == oracle_rooted_degeneracy(g, roots)


def test_degree_to_gcd_reduction_graph_has_low_rooted_degeneracy():
    # the glue graph used by the star-switcher reduction for a 3-chromatic
    # pattern: a 3-vertex path, a 3-clique, and edges from the path's ends to
    # the clique's last two vertices; rooted at the path it peels at width 3
    chi = 3
    p = 3  # path vertices 0,1,2
    k = Graph(p + chi, [(0, 1), (1, 2)] +
              [(p + i, p + j) for i in range(chi) for j in range(i + 1, chi)] +
              [(end, p + i) for end in (0, 2) for i in range(1, chi)])
    d, _ = rooted_degeneracy(k, {0, 1, 2})
    assert d <= chi == 3


def test_proper_colourings_complete_graph_count():
    # s colours on K_n: s!/(s-n)! labelled colourings
    got = sum(1 for _ in proper_colourings(complete_graph(3), 4))
    assert got == 4 * 3 * 2


def test_proper_colourings_walk_is_iterative():
    # a 2001-vertex walk is deeper than the recursion limit
    g = cycle_graph(2001)
    c = next(proper_colourings(g, 3))
    assert all(c[u] != c[v] for u, v in g.edges)


def test_star_counts_match_brute_force():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(2, 7)
        g = Graph(n, [e for e in combinations(range(n), 2)
                      if rng.random() < 0.5])
        chi = chromatic_number(g)
        for s in (chi, chi + 1):
            got = list(star_counts(g, s))
            want = [(c, v, tuple(sum(1 for u in g.adj[v] if c[u] == i)
                                 for i in range(1, s)))
                    for c in oracle_colourings(g, s)
                    for v in range(n) if c[v] == s]
            assert sorted(got) == sorted(want)
            # colourings in walk order, each one's star vertices ascending
            assert [(c, v) for c, v, _ in got] == [
                (c, v) for c in proper_colourings(g, s)
                for v in range(n) if c[v] == s]


def test_chi_colouring_is_the_walks_first_colouring():
    # half the graphs bipartite, where the colouring is read off by search
    # from each component's first vertex instead of by the walk
    rng = random.Random(11)
    for i in range(80):
        n = rng.randint(1, 10)
        side = [rng.randint(0, 1) if i % 2 else v for v in range(n)]
        g = Graph(n, [(u, v) for u, v in combinations(range(n), 2)
                      if side[u] != side[v] and rng.random() < 0.4])
        chi = chromatic_number(g)
        assert chi_colouring(g) == (chi, next(proper_colourings(g, chi)))


def test_chi_colouring_of_a_bipartite_hub_path_takes_no_walk():
    # the path 0..91 with a leaf on each of 3, 6, ..., 90: the 30 hubs lead
    # the degree order, and a walk colouring them all 1 first would meet
    # their clashes only at the path vertices, about 2^28 tries later
    g = Graph(122, path_graph(91).edges
              | {(h, 91 + h // 3) for h in range(3, 91, 3)})
    chi, c = chi_colouring(g)
    assert chi == 2 and c[3] == 1
    assert all(c[u] != c[v] for u, v in g.edges)


def test_first_colouring_walk_has_a_step_budget():
    # 30 hubs with three leaves each lead the degree order; a diamond and
    # one more edge force h_i != h_(i+1), so the first 3-colouring walk
    # colours every hub 1 and would backtrack through ~3^28 hub colourings
    hubs = 30
    edges = [(h, hubs + 3 * h + j) for h in range(hubs) for j in range(3)]
    n = 4 * hubs
    for h in range(hubs - 1):
        a, b, z = n, n + 1, n + 2
        n += 3
        edges += [(h, a), (h, b), (a, b), (a, z), (b, z), (z, h + 1)]
    g = Graph(n, edges)
    assert chromatic_number(g) == 3
    with pytest.raises(ResourceError, match="step budget"):
        chi_colouring(g)
