import hashlib
import random
import sys
from fractions import Fraction

import pytest

from decomplab.cli import EXIT_UNSAT, run
from decomplab.divisibility import check_divisibility
from decomplab.embeddings import find_embedding, rank_masks
from decomplab.extremal import generate_extremal
from decomplab.graphs import (Decomposition, EmbeddedCopy, Graph,
                              complete_graph, complete_bipartite, cycle_graph,
                              degree_gcd_of, disjoint_union, norm_edge,
                              path_graph)
from decomplab import solver
from decomplab.graphio import serialize_edge_list
from decomplab.solver import (FEASIBLE, INDETERMINATE, INFEASIBLE, SAT,
                              UNSAT_DIVISIBILITY, UNSAT_EXHAUSTED,
                              UNSAT_LATTICE, candidate_copies, cover_vertex,
                              exact_decompose, fractional_decompose,
                              greedy_decompose, verify_decomposition)
from test_embeddings import GOLDEN_PATTERNS, brute_force_embeddings, edge_set

K3 = complete_graph(3)
C4 = cycle_graph(4)
K33 = complete_bipartite(3, 3)
PAW = Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])


def random_host(rng, lo, hi):
    n = rng.randint(lo, hi)
    p = rng.uniform(.3, .95)
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < p])


def test_kirkman_k7():
    res = exact_decompose(K3, complete_graph(7))
    assert res.status == SAT
    assert len(res.decomposition.copies) == 7
    ok, why = verify_decomposition(res.decomposition)
    assert ok, why


def test_k6_unsat_by_degree():
    res = exact_decompose(K3, complete_graph(6))
    assert res.status == UNSAT_DIVISIBILITY
    assert res.report.degree_residues == {v: 1 for v in range(6)}


def test_c4_decomposes_k44():
    res = exact_decompose(cycle_graph(4), complete_bipartite(4, 4))
    assert res.status == SAT
    assert len(res.decomposition.copies) == 4
    assert verify_decomposition(res.decomposition)[0]


def test_kirkman_oracle_3_to_13():
    for n in range(3, 14):
        res = exact_decompose(K3, complete_graph(n), timeout=300)
        expect_sat = n % 6 in (1, 3)
        assert (res.status == SAT) == expect_sat, f"n={n}: {res.status}"
        if res.status == SAT:
            assert verify_decomposition(res.decomposition)[0]


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_search_depth_is_not_bounded_by_the_recursion_limit():
    # K3 into K33 chooses 176 copies, far more than 60 frames of headroom
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 60)
    try:
        res = exact_decompose(K3, complete_graph(33))
    finally:
        sys.setrecursionlimit(old)
    assert res.status == SAT and len(res.decomposition.copies) == 176
    assert verify_decomposition(res.decomposition)[0]


def test_zero_budget_is_indeterminate_not_unsat():
    c4 = cycle_graph(4)
    inst = generate_extremal(c4, "tau_23", 2)
    res = exact_decompose(c4, inst.graph, timeout=0)
    assert res.status == INDETERMINATE


def test_unsat_by_exhaustion_distinct_from_divisibility():
    # C5 is 2-regular with 5 edges; host: two 5-cycles sharing no edge shape
    # built to be divisible but not decomposable: C10 has 10 edges, degrees 2
    host = cycle_graph(10)
    res = exact_decompose(cycle_graph(5), host)
    assert res.status == UNSAT_EXHAUSTED


def _k88_minus_c6():
    # K8,8 on 0..7 | 8..15 minus the 6-cycle 0-8-1-9-2-10: 58 edges, degrees
    # 6 and 8
    cyc = [0, 8, 1, 9, 2, 10]
    return complete_bipartite(8, 8).without_edges(
        zip(cyc, cyc[1:] + cyc[:1]))


# Divisible hosts with two components whose edge counts are not multiples of
# e(F): every degree is even and e(G) is a multiple of e(F), so only the
# component rule refutes them.  Without it the C4 host times out.
SPLIT_HOSTS = [
    (C4, disjoint_union(_k88_minus_c6(), _k88_minus_c6()), 58 % 4),
    (K3, disjoint_union(complete_graph(9).minus(cycle_graph(4)),
                        complete_graph(9).minus(cycle_graph(5))), 32 % 3),
]


@pytest.mark.parametrize("pattern, host, residue", SPLIT_HOSTS,
                         ids=["C4-two-K88-minus-C6", "K3-K9-minus-C4-C5"])
def test_an_indivisible_component_ends_the_solve_before_the_search(
        tmp_path, pattern, host, residue):
    assert check_divisibility(pattern, host).divisible
    res = exact_decompose(pattern, host, timeout=20)
    assert res.status == UNSAT_DIVISIBILITY and res.nodes == 0
    # the report is the first component's own
    assert res.report.edge_residue == residue
    assert res.report.degree_divisible
    f, g = tmp_path / "f.txt", tmp_path / "g.txt"
    f.write_text(serialize_edge_list(pattern))
    g.write_text(serialize_edge_list(host))
    out = run(["solve", "--pattern", str(f), "--host", str(g)])
    assert out.exit_code == EXIT_UNSAT
    assert out.payload == {"status": UNSAT_DIVISIBILITY,
                           "edge_residue": residue, "degree_residues": {}}


def test_component_rule_needs_a_connected_pattern():
    # two disjoint edges: a copy may use both components, so a triangle and
    # a path of three edges (3 and 3 edges, neither even) still split into
    # copies across them
    two_edges = Graph(4, [(0, 1), (2, 3)])
    host = disjoint_union(complete_graph(3), Graph(4, [(0, 1), (1, 2),
                                                       (2, 3)]))
    res = exact_decompose(two_edges, host)
    assert res.status == SAT
    assert verify_decomposition(res.decomposition) == (True, None)


def test_core_branches_on_the_fewest_live_columns_then_the_lowest_item():
    # items 1 and 64 tie on one live column; a set of {1, 64, 65} iterates
    # 64 first, so only the explicit tie-break chooses column 1 first
    chosen, nodes, hit = solver._exact_cover([(64,), (1,), (65,), (65,)], 66,
                                             [65, 64, 1])
    assert chosen == [1, 0, 2] and nodes == 4 and not hit
    # one live column beats a lower item with two
    chosen, _, _ = solver._exact_cover([(0,), (0,), (5,)], 6, [0, 5])
    assert chosen == [2, 0]


def reference_exact_cover(columns, primary, refute=None):
    """Plain recursive Algorithm X: branch on the uncovered primary item
    with the fewest live columns, the lowest item among ties, and try its
    live columns in index order.  Nodes count 1 + the columns tried;
    `refute()` is called once, when that count reaches len(primary), and a
    true answer ends the search.  Returns (chosen columns or None, nodes)."""
    primary = set(primary)
    live = set(range(len(columns)))
    chosen, nodes = [], 0

    def search(covered):
        # True: a cover is found; False: none below here; None: refuted
        nonlocal nodes
        nodes += 1
        uncovered = primary - covered
        if not uncovered:
            return True
        if refute is not None and nodes == len(primary) and refute():
            return None

        def through(e):
            return [j for j in sorted(live) if e in columns[j]]

        item = min(uncovered, key=lambda e: (len(through(e)), e))
        for j in through(item):
            killed = {k for k in live if set(columns[k]) & set(columns[j])}
            live.difference_update(killed)
            chosen.append(j)
            found = search(covered | set(columns[j]))
            if found is not False:
                return found
            chosen.pop()
            live.update(killed)
        return False

    return (chosen if search(set()) else None), nodes


def test_core_matches_a_recursive_algorithm_x():
    """Random instances with secondary items, empty primaries and refute
    hooks that answer True or False: the same chosen columns, node counts
    and refute calls as the recursive reference."""
    rng = random.Random(0)
    backtracked = refuted = kept_on = 0
    for _ in range(4000):
        n_items = rng.randint(1, 12)
        primary = rng.sample(range(n_items), rng.randint(0, n_items))
        columns = [tuple(rng.sample(range(n_items),
                                    rng.randint(1, min(4, n_items))))
                   for _ in range(rng.randint(0, 24))]
        answer = rng.choice((None, False, True))
        calls = [0, 0]

        def hook(side):
            if answer is None:
                return None

            def refute():
                calls[side] += 1
                return answer
            return refute

        chosen, nodes = reference_exact_cover(columns, primary, hook(0))
        assert solver._exact_cover(columns, n_items, primary,
                                   refute=hook(1)) == (chosen, nodes, False)
        assert calls[0] == calls[1] <= 1
        backtracked += nodes > 1 + len(chosen or ())
        refuted += calls[0] == 1 and answer
        kept_on += calls[0] == 1 and not answer
    # the panel reaches every branch the comparison is meant to cover
    assert backtracked >= 500 and refuted >= 100 and kept_on >= 100


# The benchmark's exact rungs, on unrelabelled hosts: the search order is
# fixed by the copy order and the tie-break, so these counts move only when
# the core's order does.
@pytest.mark.parametrize("pattern, host, status, nodes", [
    pytest.param(K3, complete_graph(27), SAT, 123, id="K3-K27"),
    pytest.param(K3, complete_graph(33), SAT, 177, id="K3-K33"),
    pytest.param(K3, complete_graph(39), SAT, 248, id="K3-K39"),
    pytest.param(K3, complete_graph(45), SAT, 335, id="K3-K45"),
    pytest.param(C4, complete_bipartite(12, 12), SAT, 37, id="C4-K12,12"),
    pytest.param(complete_graph(4), complete_graph(16), SAT, 28, id="K4-K16"),
    pytest.param(K33, generate_extremal(K33, "tau_23", 1).graph,
                 UNSAT_EXHAUSTED, 1, id="K33-tau_23-1"),
    pytest.param(C4, generate_extremal(C4, "tau_23", 2).graph,
                 UNSAT_LATTICE, 172, id="C4-tau_23-2"),
])
def test_benchmark_rungs_keep_their_status_and_node_count(pattern, host,
                                                          status, nodes):
    res = exact_decompose(pattern, host, timeout=60)
    assert (res.status, res.nodes) == (status, nodes)
    if res.status == SAT:
        assert verify_decomposition(res.decomposition)[0]


def test_verify_catches_mutations():
    res = exact_decompose(K3, complete_graph(7))
    dec = res.decomposition
    # deleting one copy leaves an uncovered edge
    broken = Decomposition(dec.host, dec.target_edges, dec.copies[1:])
    ok, why = verify_decomposition(broken)
    assert not ok and "uncovered" in why
    # duplicating one copy double-covers
    doubled = Decomposition(dec.host, dec.target_edges,
                            dec.copies + [dec.copies[0]])
    ok, why = verify_decomposition(doubled)
    assert not ok and "twice" in why


def test_verify_compares_patterns_by_value():
    dec = exact_decompose(K3, complete_graph(7)).decomposition
    twin = complete_graph(3)
    assert twin == dec.copies[0].pattern and twin is not dec.copies[0].pattern
    copies = [EmbeddedCopy(twin, c.image) if k % 2 else c
              for k, c in enumerate(dec.copies)]
    same = Decomposition(dec.host, dec.target_edges, copies)
    assert verify_decomposition(same) == (True, None)
    other = Graph(3, [(0, 1), (1, 2)])
    copies[3] = EmbeddedCopy(other, dec.copies[3].image)
    mixed = Decomposition(dec.host, dec.target_edges, copies)
    assert verify_decomposition(mixed) == (
        False, "copy 3 has a different pattern")


def test_verify_wrong_pattern_and_bad_embedding():
    k4 = complete_graph(4)
    dec = Decomposition(k4, k4.edges, [
        EmbeddedCopy(K3, (0, 1, 2)),
        EmbeddedCopy(path_graph(2), (0, 1, 3)),
    ])
    ok, why = verify_decomposition(dec)
    assert not ok and "different pattern" in why


# -- fractional ----------------------------------------------------------------


def test_fractional_k4_forced_half():
    res = fractional_decompose(K3, complete_graph(4), mode="rational")
    assert res.status == FEASIBLE
    sol = res.solution
    assert len(sol.images) == 4
    assert all(w == Fraction(1, 2) for w in sol.weights)


def edge_loads(sol):
    """The weight on each edge, summed in one pass over the images."""
    load = {}
    for im, w in zip(sol.images, sol.weights):
        for a, b in sol.pattern.edges:
            e = norm_edge(im[a], im[b])
            load[e] = load.get(e, 0) + w
    return load


def test_fractional_k6_quarter_feasible():
    # fractional relaxation ignores the degree obstruction
    res = fractional_decompose(K3, complete_graph(6), mode="rational")
    assert res.status == FEASIBLE
    sol = res.solution
    # each edge of K6 lies in exactly 4 triangles; the uniform 1/4 vector is
    # feasible, and whatever the solver returned must satisfy the system
    load = edge_loads(sol)
    assert all(load.get(e) == 1 for e in complete_graph(6).edges)


def test_fractional_tree_infeasible():
    res = fractional_decompose(K3, path_graph(4), mode="rational")
    assert res.status == INFEASIBLE


def test_fractional_float_mode():
    res = fractional_decompose(K3, complete_graph(4), mode="float")
    assert res.status == FEASIBLE
    load = edge_loads(res.solution)
    assert all(abs(load.get(e, 0) - 1) < 1e-7 for e in complete_graph(4).edges)


def test_exact_sat_implies_fractional_feasible():
    rng = random.Random(3)
    found = 0
    while found < 4:
        n = rng.randint(4, 9)
        g = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                      if rng.random() < .7])
        res = exact_decompose(K3, g, timeout=10)
        if res.status == SAT:
            found += 1
            assert fractional_decompose(K3, g).status == FEASIBLE


# -- greedy --------------------------------------------------------------------


def test_greedy_k2_empty_leftover():
    g = complete_graph(6)
    out = greedy_decompose(Graph(2, [(0, 1)]), g)
    assert out.leftover.e == 0
    assert len(out.copies) == g.e


def test_greedy_k3_on_k4():
    out = greedy_decompose(K3, complete_graph(4), seed=5)
    assert len(out.copies) == 1
    assert out.leftover.e == 3
    # leftover must be triangle-free
    from decomplab.embeddings import enumerate_embeddings
    assert enumerate_embeddings(K3, out.leftover, limit=1) == []


def test_greedy_c4_leftover_is_c4_free():
    rng = random.Random(11)
    n = 24
    g = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                  if rng.random() < .8])
    out = greedy_decompose(cycle_graph(4), g, seed=1)
    from decomplab.embeddings import enumerate_embeddings
    assert enumerate_embeddings(cycle_graph(4), out.leftover, limit=1) == []
    # covered + leftover = original
    covered = set()
    for c in out.copies:
        es = c.edge_image()
        assert not (es & covered)
        covered |= es
    assert covered | out.leftover.edges == g.edges


def _greedy_hosts():
    rng = random.Random(5)
    dense = Graph(20, [(i, j) for i in range(20) for j in range(i + 1, 20)
                       if rng.random() < .7])
    return [complete_graph(13), complete_bipartite(6, 7), dense]


@pytest.mark.parametrize("pattern", [K3, complete_graph(4), cycle_graph(4)],
                         ids=["K3", "K4", "C4"])
def test_greedy_certificate_target_is_the_union_of_its_copies(pattern):
    # the target is the host minus the leftover, taken as a set difference
    for host in _greedy_hosts():
        for seed in range(3):
            out = greedy_decompose(pattern, host, seed=seed)
            dec = out.as_decomposition(host)
            union = frozenset().union(*(c.edge_image() for c in out.copies))
            assert dec.target_edges == union
            assert dec.copies == out.copies
            assert verify_decomposition(dec) == (True, None)


def test_greedy_deterministic_per_seed():
    g = complete_graph(9)
    a = greedy_decompose(K3, g, seed=7)
    b = greedy_decompose(K3, g, seed=7)
    assert [c.image for c in a.copies] == [c.image for c in b.copies]


def every_arc_greedy(pattern, host, seed):
    """Reference: every pattern edge, sorted, in both orientations, first
    hit; the same seeded vertex order and edge queue as greedy_decompose."""
    rng = random.Random(seed)
    adj = [set(s) for s in host.adj]
    order = list(range(host.n))
    rng.shuffle(order)
    rank = {h: r for r, h in enumerate(order)}
    queue = sorted(host.edges)
    rng.shuffle(queue)
    images = []
    for u, v in queue:
        if v not in adj[u]:
            continue
        pins = [pin for p, q in sorted(pattern.edges)
                for pin in ({p: u, q: v}, {p: v, q: u})]
        masks = rank_masks(adj, order)
        for pin in pins:
            img = find_embedding(pattern, masks,
                                 {p: rank[h] for p, h in pin.items()})
            if img is not None:
                img = tuple(order[r] for r in img)
                images.append(img)
                for a, b in pattern.edges:
                    adj[img[a]].discard(img[b])
                    adj[img[b]].discard(img[a])
                break
    left = {(a, b) for a in range(host.n) for b in adj[a] if a < b}
    return images, left


@pytest.mark.parametrize("k, copies, leftover, digest", [
    (3, 3145, 295, "f34e9ca43d812824"),
    (4, 1460, 970, "efb76ce55d4be1ca"),
])
def test_greedy_on_k140_keeps_its_copies(k, copies, leftover, digest):
    # the images and leftover of the set-based kernel before rank masks
    out = greedy_decompose(complete_graph(k), complete_graph(140), seed=k)
    images = [c.image for c in out.copies]
    assert (len(images), out.leftover.e) == (copies, leftover)
    assert hashlib.sha256(repr(images).encode()).hexdigest()[:16] == digest


@pytest.mark.parametrize("pattern", [
    K3, complete_graph(4), cycle_graph(4), cycle_graph(5), path_graph(2), PAW,
    complete_bipartite(3, 3)], ids=["K3", "K4", "C4", "C5", "P3", "paw", "K33"])
def test_greedy_matches_the_every_arc_reference(pattern):
    rng = random.Random(13)
    for seed in range(50):
        g = random_host(rng, 5, 14)
        out = greedy_decompose(pattern, g, seed=seed)
        images, left = every_arc_greedy(pattern, g, seed)
        assert [c.image for c in out.copies] == images
        assert out.leftover.edges == left


# -- cover_vertex ----------------------------------------------------------------


def test_through_vertex_copies_match_brute_force():
    rng = random.Random(17)
    patterns = [K3, cycle_graph(4), path_graph(2), PAW,
                complete_bipartite(1, 3), Graph(4, [(0, 1), (1, 2), (0, 2)])]
    for _ in range(60):
        f = rng.choice(patterns)
        g = random_host(rng, f.n, 7)
        oracle = brute_force_embeddings(f, g)
        for x in range(g.n):
            got = [edge_set(f, img) for img in
                   candidate_copies(f, g, through_vertex=x)]
            want = {frozenset(norm_edge(img[u], img[v]) for u, v in f.edges)
                    for img in oracle if x in img}
            assert len(got) == len(want) and set(got) == want


def test_cover_vertex_k7():
    res = cover_vertex(K3, complete_graph(7), 0)
    assert res.status == SAT
    dec = res.decomposition
    star = {(0, y) for y in range(1, 7)}
    covered = set()
    for c in dec.copies:
        es = c.edge_image()
        assert not (es & covered)
        covered |= es
    assert star <= covered
    assert len(dec.copies) == 3


def test_cover_vertex_k6_residue():
    res = cover_vertex(K3, complete_graph(6), 0)
    assert res.status == UNSAT_DIVISIBILITY
    assert res.report["residue"] == 1


def test_cover_vertex_star_host():
    path2 = path_graph(2)  # the 2-edge path: centre vertex 1
    star = Graph(5, [(0, i) for i in range(1, 5)])
    res = cover_vertex(path2, star, 0)
    assert res.status == SAT and len(res.decomposition.copies) == 2


def test_cover_vertex_unsat_structure():
    # degree divisible but nothing to cover with: star K_{1,2} and pattern K3
    g = Graph(3, [(0, 1), (0, 2)])
    res = cover_vertex(K3, g, 0)
    assert res.status == UNSAT_EXHAUSTED


def test_exact_sat_gives_a_star_cover_at_every_vertex():
    # hosts are unions of random edge-disjoint copies, so each is SAT
    rng = random.Random(7)
    for _ in range(20):
        f = rng.choice([K3, cycle_graph(4), cycle_graph(5)])
        n = rng.randint(5, 10)
        edges = set()
        for _ in range(rng.randint(1, 6)):
            img = rng.sample(range(n), f.n)
            es = {tuple(sorted((img[u], img[v]))) for u, v in f.edges}
            if not es & edges:
                edges |= es
        g = Graph(n, edges)
        assert exact_decompose(f, g, timeout=10).status == SAT
        for x in range(n):
            if not g.degree(x):
                continue
            res = cover_vertex(f, g, x, timeout=10)
            assert res.status == SAT, (f, g.edges, x, res.status)
            covered = set()
            for c in res.decomposition.copies:
                assert c.is_valid(g)
                es = c.edge_image()
                assert not (es & covered)
                covered |= es
            assert {e for e in g.edges if x in e} <= covered


def star_cover_status(pattern, host, x):
    """cover_vertex's status by plain search over the candidate copies
    whose edge set meets the star at x."""
    if host.degree(x) % degree_gcd_of(pattern):
        return UNSAT_DIVISIBILITY
    star = frozenset(norm_edge(x, y) for y in host.adj[x])
    options = [es for es in (edge_set(pattern, img) for img in
                             candidate_copies(pattern, host,
                                              through_vertex=x))
               if es & star]

    def cover(left, used):
        if not left:
            return True
        e = min(left)
        return any(cover(left - o, used | o) for o in options
                   if e in o and not o & used)
    return SAT if cover(star, frozenset()) else UNSAT_EXHAUSTED


def test_cover_vertex_hands_the_core_only_copies_through_the_star(monkeypatch):
    # the isolated pattern vertex may land on x, giving a copy that contains
    # x but none of its edges
    tri_k1 = Graph(4, [(0, 1), (1, 2), (0, 2)])
    core, handed = solver._exact_cover, []

    def recorded(columns, n_items, primary, *args, **kw):
        handed.append((columns, set(primary)))
        return core(columns, n_items, primary, *args, **kw)

    monkeypatch.setattr(solver, "_exact_cover", recorded)
    rng = random.Random(5)
    statuses, isolated_on_x = set(), 0
    for _ in range(25):
        g = random_host(rng, 5, 8)
        edges = sorted(g.edges)
        for x in range(g.n):
            if not g.degree(x):
                continue
            isolated_on_x += sum(img[3] == x for img in candidate_copies(
                tri_k1, g, through_vertex=x))
            handed.clear()
            res = cover_vertex(tri_k1, g, x, timeout=10)
            statuses.add(res.status)
            assert res.status == star_cover_status(tri_k1, g, x)
            star = frozenset(norm_edge(x, y) for y in g.adj[x])
            for columns, primary in handed:
                assert {edges[i] for i in primary} == star
                assert all(star & {edges[i] for i in col} for col in columns)
            if res.status != SAT:
                continue
            covered = set()
            for c in res.decomposition.copies:
                es = c.edge_image()
                assert c.is_valid(g) and es & star and not es & covered
                covered |= es
            assert star <= covered == res.decomposition.target_edges
    assert statuses == {SAT, UNSAT_EXHAUSTED, UNSAT_DIVISIBILITY}
    assert isolated_on_x


# -- candidate images and the copies a result hands out -----------------------


def test_candidate_images_are_golden():
    # digest of the image lists as candidate_copies gave them when it still
    # built EmbeddedCopy values: whole hosts, proper-subset targets, and
    # copies through each vertex
    rng = random.Random(4724)
    runs = []
    for _ in range(8):
        n = rng.randint(6, 8)
        host = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                         if rng.random() < 0.8])
        target = frozenset(e for e in host.edges if rng.random() < 0.8)
        for pattern in GOLDEN_PATTERNS:
            for edges in (host.edges, target):
                for x in (None, *range(n)):
                    runs.append(candidate_copies(pattern, Graph(n, edges),
                                                 through_vertex=x))
    assert len(runs) == 620 and sum(map(len, runs)) == 10958
    digest = hashlib.sha256(repr(runs).encode()).hexdigest()[:16]
    assert digest == "b00dbd49fb85530f"


def test_returned_copies_live_in_the_callers_host():
    host = complete_graph(7)
    res = exact_decompose(K3, host)
    assert res.status == SAT and len(res.decomposition.copies) == 7
    assert verify_decomposition(res.decomposition) == (True, None)
    star = cover_vertex(K3, host, 0)
    assert star.status == SAT and len(star.decomposition.copies) == 3
    frac = fractional_decompose(K3, host)
    assert frac.status == FEASIBLE
    sol = frac.solution
    assert len(sol.copies) == len(sol.weights) == 35
    assert [c.image for c in sol.copies] == sol.images
    assert res.decomposition.host is host and star.decomposition.host is host
    for c in [*res.decomposition.copies, *star.decomposition.copies,
              *sol.copies]:
        assert type(c) is EmbeddedCopy and c.pattern is K3
    # the weights stay aligned with their copies: each edge carries 1
    load = edge_loads(sol)
    assert all(load.get(e) == 1 for e in host.edges)


def test_fractional_answer_is_the_candidate_images(monkeypatch):
    # the solution hands over candidate_copies' list as is; an EmbeddedCopy
    # is built only when a caller asks for `copies`
    built = []
    init = EmbeddedCopy.__init__

    def counting_init(self, pattern, image):
        built.append(image)
        init(self, pattern, image)

    monkeypatch.setattr(EmbeddedCopy, "__init__", counting_init)
    for pattern, host, mode in ((K3, complete_graph(9), "rational"),
                                (K3, complete_graph(25), "float"),
                                (C4, complete_bipartite(5, 5), "rational")):
        sol = fractional_decompose(pattern, host, mode=mode).solution
        assert built == []
        assert sol.pattern is pattern
        assert sol.images == candidate_copies(pattern, host)
        assert len(sol.weights) == len(sol.images)
    assert [c.image for c in sol.copies] == built == sol.images
