import os
import random
import subprocess
import sys
import warnings
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import scipy.optimize

from decomplab import lp, solver
from decomplab.graphs import Graph, complete_graph, cycle_graph, path_graph
from decomplab.lp import (FEASIBLE, INDETERMINATE, INFEASIBLE,
                          solve_equalities_box_float, solve_equalities_nonneg)
from decomplab.solver import candidate_copies, fractional_decompose

K3 = complete_graph(3)
PATTERNS = [K3, cycle_graph(4), cycle_graph(5)]


def _norm(u, v):
    return (u, v) if u < v else (v, u)


def _all_copies(pattern, host):
    """Edge sets of every copy of the pattern in the host, by brute force."""
    out = set()
    for img in permutations(range(host.n), pattern.n):
        es = frozenset(_norm(img[u], img[v]) for u, v in pattern.edges)
        if es <= host.edges:
            out.add(es)
    return out


def _exact_loads(pattern, sol):
    load = {}
    for im, w in zip(sol.images, sol.weights):
        assert isinstance(w, Fraction) and w >= 0
        for u, v in pattern.edges:
            e = _norm(im[u], im[v])
            load[e] = load.get(e, 0) + w
    return load


def _incidence(pattern, host):
    """The full LP's rows: one 0/1 row per edge of sorted(host.edges), one
    column per copy, for calling lp without the quotient."""
    at = {e: i for i, e in enumerate(sorted(host.edges))}
    copies = sorted(_all_copies(pattern, host), key=sorted)
    a = np.zeros((host.e, len(copies)), dtype=np.int8)
    for c, es in enumerate(copies):
        a[[at[e] for e in es], c] = 1
    return list(a)


def _exact_row_loads(rows, x):
    """A x over Fraction, for 0/1 rows."""
    return [sum(x[j] for j in np.flatnonzero(row).tolist()) for row in rows]


def _farkas_holds(pattern, host, y):
    """yᵀA <= 0 over every copy and yᵀ1 > 0, with y indexed by sorted edges."""
    weight = dict(zip(sorted(host.edges), y))
    return (len(y) == host.e and sum(y) > 0
            and all(sum(weight[e] for e in es) <= 0
                    for es in _all_copies(pattern, host)))


def _chang():
    """The Chang graph that Seidel-switches T(8), the line graph of K8, on
    the perfect matching {01, 23, 45, 67}: strongly regular (28, 12, 6, 4),
    so every edge lies in 6 triangles, but not edge-transitive."""
    pairs = list(combinations(range(8), 2))
    switched = {pairs.index(p) for p in ((0, 1), (2, 3), (4, 5), (6, 7))}
    return Graph(28, [(i, j) for i, j in combinations(range(28), 2)
                      if bool(set(pairs[i]) & set(pairs[j]))
                      != ((i in switched) != (j in switched))])


def test_k4_minus_edge_infeasible_with_checked_farkas_vector():
    host = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    # every edge lies in a triangle, yet no weighting covers each edge once
    assert all(any(e in es for es in _all_copies(K3, host)) for e in host.edges)
    res = fractional_decompose(K3, host, mode="rational")
    assert res.status == INFEASIBLE and res.solution is None
    assert all(isinstance(t, Fraction) for t in res.farkas)
    assert _farkas_holds(K3, host, res.farkas)


def test_unchecked_farkas_vector_gives_indeterminate(monkeypatch):
    # a zero vector fails yᵀ1 > 0, so no infeasibility may be claimed
    monkeypatch.setattr(lp, "_rationalise", lambda v: [Fraction(0)] * len(v))
    host = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    res = fractional_decompose(K3, host, mode="rational")
    assert res.status == INDETERMINATE and res.farkas is None


def test_float_k25_feasible():
    host = complete_graph(25)
    res = fractional_decompose(K3, host, mode="float")
    assert res.status == FEASIBLE
    load = {e: 0.0 for e in host.edges}
    for im, w in zip(res.solution.images, res.solution.weights):
        assert 0.0 <= w <= 1.0
        for u, v in K3.edges:
            load[_norm(im[u], im[v])] += w
    assert max(abs(t - 1.0) for t in load.values()) <= 1e-9


def _supports(monkeypatch):
    """The support of every `_solve_support` call from here on."""
    solve_support, supports = lp._solve_support, []

    def spy(entries, n, b, support):
        supports.append(support)
        return solve_support(entries, n, b, support)

    monkeypatch.setattr(lp, "_solve_support", spy)
    return supports


def test_support_elimination_when_rounding_fails(monkeypatch):
    # with denominators capped at 1 the rounded vertex fails the exact check,
    # so the weights must come from elimination on the vertex's support.
    # Both quotients are 1 x 1, which a division answers, so the full
    # incidence goes to lp directly
    monkeypatch.setattr(lp, "_DENOMINATOR", 1)
    supports = _supports(monkeypatch)
    for n, pattern in ((9, K3), (7, cycle_graph(4))):
        rows = _incidence(pattern, complete_graph(n))
        status, x = solve_equalities_nonneg(rows, [1] * len(rows))
        assert status == FEASIBLE
        assert any(w.denominator > 1 for w in x)
        assert min(x) >= 0 and _exact_row_loads(rows, x) == [1] * len(rows)
    assert len(supports) == 2


def _random_hosts(seed, hi):
    """120 (pattern, random host on 4..hi vertices) pairs, then K3 on the
    Chang graph, whose edges all lie in 6 triangles."""
    rng = random.Random(seed)
    for _ in range(120):
        pattern = rng.choice(PATTERNS)
        n = rng.randint(4, hi)
        dens = rng.uniform(0.4, 0.95)
        yield pattern, Graph(n, [e for e in combinations(range(n), 2)
                                 if rng.random() < dens])
    yield K3, _chang()


def _is_chang_answer(res, sixth):
    """Every one of the Chang graph's 336 triangles weighted `sixth`."""
    sol = res.solution
    return (res.status == FEASIBLE and len(sol.images) == 336
            and set(sol.weights) == {sixth})


def test_rational_and_float_agree_on_random_hosts():
    seen = {FEASIBLE: 0, INFEASIBLE: 0}
    for pattern, host in _random_hosts(11, 7):
        exact = fractional_decompose(pattern, host, mode="rational")
        approx = fractional_decompose(pattern, host, mode="float")
        assert exact.status == approx.status
        seen[exact.status] += 1
        if exact.status == FEASIBLE:
            load = _exact_loads(pattern, exact.solution)
            assert load == {e: 1 for e in host.edges}
        else:
            assert _farkas_holds(pattern, host, exact.farkas)
    assert _is_chang_answer(exact, Fraction(1, 6))
    assert _is_chang_answer(approx, 1 / 6)
    assert min(seen.values()) >= 20


def _classes_agree(item_class, members, member_class) -> bool:
    """Whether the items of a class each have the same number of members
    in each class."""
    counts = {(item_class[i],
               tuple(sorted(Counter(member_class[j] for j in js).items())))
              for i, js in enumerate(members)}
    return len(counts) == len(set(item_class))


def test_quotient_matches_the_full_lp_on_random_hosts():
    # the oracle is lp on the full incidence, one 0/1 column per copy
    seen = {FEASIBLE: 0, INFEASIBLE: 0}
    reduced = 0
    for pattern, host in _random_hosts(26, 8):
        edges = sorted(host.edges)
        rows = _incidence(pattern, host)
        exact = fractional_decompose(pattern, host, mode="rational")
        approx = fractional_decompose(pattern, host, mode="float")
        assert exact.status == solve_equalities_nonneg(rows, [1] * host.e)[0]
        assert approx.status == solve_equalities_box_float(
            rows, [1.0] * host.e)[0]
        seen[exact.status] += 1
        if exact.status == FEASIBLE:
            load = _exact_loads(pattern, exact.solution)
            assert load == {e: 1 for e in host.edges}
        else:
            assert _farkas_holds(pattern, host, exact.farkas)
        # the partition is equitable both ways
        _, columns = solver._copy_table(
            pattern, candidate_copies(pattern, host), host.n, edges)
        by_edge = solver._by_item(columns, len(edges))
        edge_class, copy_class = solver._equitable_partition(
            columns, list(map(len, by_edge)), lambda: by_edge)
        through = [[c for c, col in enumerate(columns) if e in col]
                   for e in range(len(edges))]
        assert _classes_agree(edge_class, through, copy_class)
        assert _classes_agree(copy_class, columns, edge_class)
        reduced += len(set(copy_class)) < len(columns)
    assert _is_chang_answer(exact, Fraction(1, 6))
    assert _is_chang_answer(approx, 1 / 6)
    assert min(seen.values()) >= 20 and reduced >= 20


def test_hosts_without_edges_or_copies():
    single_edge = Graph(2, [(0, 1)])
    for mode in ("rational", "float"):
        for host in (Graph(0, []), Graph(5, [])):
            res = fractional_decompose(K3, host, mode=mode)
            assert res.status == FEASIBLE
            assert res.solution.images == [] and res.solution.weights == []
        # no candidate copies: K4 on K3, and P3 on a single edge
        for pattern, host in ((complete_graph(4), K3),
                              (path_graph(2), single_edge)):
            res = fractional_decompose(pattern, host, mode=mode)
            assert res.status == INFEASIBLE and res.solution is None
            if mode == "rational":
                assert _farkas_holds(pattern, host, res.farkas)


def _two_halves(n, d):
    """Two halves of n/2 vertices, every cross edge, and a d-regular
    circulant with offsets 1..d/2 inside each half."""
    h = n // 2
    return Graph(n, [(u, h + v) for u in range(h) for v in range(h)]
                 + [(s + i, s + (i + k) % h) for s in (0, h)
                    for i in range(h) for k in range(1, d // 2 + 1)])


def test_two_halves_statuses():
    for n, d, want in ((24, 4, INFEASIBLE), (48, 10, INFEASIBLE),
                       (48, 12, FEASIBLE)):
        host = _two_halves(n, d)
        assert host.e == n * n // 4 + n * d // 2
        approx = fractional_decompose(K3, host, mode="float")
        exact = fractional_decompose(K3, host, mode="rational")
        assert exact.status == approx.status == want
        if want == FEASIBLE:
            load = _exact_loads(K3, exact.solution)
            assert load == {e: 1 for e in host.edges}
        else:
            assert _farkas_holds(K3, host, exact.farkas)


def _methods(monkeypatch):
    """The HiGHS methods of every linprog call from here on, in order."""
    called, linprog = [], scipy.optimize.linprog

    def spy(*args, **kwargs):
        called.append(kwargs["method"])
        return linprog(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "linprog", spy)
    return called


def _sparses(monkeypatch):
    """(columns, exact) of every `_sparse` call from here on."""
    sparse, calls = lp._sparse, []

    def spy(rows, n, exact):
        calls.append((n, exact))
        return sparse(rows, n, exact)

    monkeypatch.setattr(lp, "_sparse", spy)
    return calls


def test_rational_mode_calls_only_the_dual_simplex(monkeypatch):
    # two-halves (48, 12) and (24, 4) have multi-column quotients; K25 less
    # the first 30% of a greedy triangle packing has little symmetry, and
    # its vertex does not round, so its weights come from the support solve
    supports = _supports(monkeypatch)
    called = _methods(monkeypatch)
    copies = solver.greedy_decompose(K3, complete_graph(25), seed=1).copies
    drop = set().union(*(c.edge_image()
                         for c in copies[:len(copies) * 3 // 10]))
    k25 = Graph(25, [e for e in combinations(range(25), 2) if e not in drop])
    assert (k25.e, len(candidate_copies(K3, k25))) == (219, 1029)
    for host, want in ((_two_halves(48, 12), FEASIBLE),
                       (_two_halves(24, 4), INFEASIBLE), (k25, FEASIBLE)):
        res = fractional_decompose(K3, host, mode="rational")
        assert res.status == want
        if want == FEASIBLE:
            assert _exact_loads(K3, res.solution) == {
                e: 1 for e in host.edges}
        else:
            assert _farkas_holds(K3, host, res.farkas)
    assert called and set(called) == {"highs-ds"}
    assert supports


def test_failed_interior_point_leaves_the_vertex_path(monkeypatch):
    # K16's quotient is 1 x 1, so its full incidence goes to lp directly
    rows = _incidence(K3, complete_graph(16))
    k4e = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    hosts = ((cycle_graph(4), k4e), (K3, k4e))
    # rational mode never calls the interior point, so a spy, not a fake,
    # is what it can be tested with
    interior, interiors = lp._interior, []

    def spy(A, b):
        interiors.append(A.shape)
        return interior(A, b)

    monkeypatch.setattr(lp, "_interior", spy)
    supports = _supports(monkeypatch)
    called = _methods(monkeypatch)
    status, x = solve_equalities_nonneg(rows, [1] * len(rows))
    assert status == FEASIBLE and min(x) >= 0
    assert _exact_row_loads(rows, x) == [1] * len(rows)
    exact = [fractional_decompose(pattern, host, mode="rational")
             for pattern, host in hosts]
    assert interiors == [] and called and set(called) == {"highs-ds"}
    # K16's vertex does not round: its weights come from the support solve
    assert len(supports) == 1
    # status 4: HiGHS reports numerical difficulties; float mode falls
    # back to the vertex
    monkeypatch.setattr(lp, "_interior", lambda A, b: (4, None))
    called.clear()
    status, _ = solve_equalities_box_float(rows, [1.0] * len(rows))
    assert status == FEASIBLE
    for (pattern, host), res in zip(hosts, exact):
        approx = fractional_decompose(pattern, host, mode="float")
        assert res.status == approx.status
        if res.status == FEASIBLE:
            load = _exact_loads(pattern, res.solution)
            assert load == {e: 1 for e in host.edges}
        else:
            assert _farkas_holds(pattern, host, res.farkas)
    assert called and set(called) == {"highs-ds"}


def test_float_interior_point_outside_tolerance_falls_back(monkeypatch):
    interior = lp._interior

    def off_by_1e6(A, b):
        status, x = interior(A, b)
        return status, x + 1e-6

    monkeypatch.setattr(lp, "_interior", off_by_1e6)
    called = _methods(monkeypatch)
    # K19's quotient is 1 x 1, which a division answers, so its full
    # incidence goes to lp directly
    rows = _incidence(K3, complete_graph(19))
    status, x = solve_equalities_box_float(rows, [1.0] * len(rows))
    assert status == FEASIBLE and called == ["highs-ipm", "highs-ds"]
    load = np.array(rows) @ np.array(x)
    assert max(abs(t - 1.0) for t in load) <= 1e-9


def test_fractional_decompose_warns_nothing():
    k4e = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for host in (complete_graph(9), k4e):
            for mode in ("rational", "float"):
                fractional_decompose(K3, host, mode=mode)


def test_general_rows_and_rhs():
    # x1 + x2 = 1, x1 - x2 = 3 forces x2 = -1
    status, y = solve_equalities_nonneg([[1, 1], [1, -1]], [1, 3])
    assert status == INFEASIBLE
    assert y[0] + y[1] <= 0 and y[0] - y[1] <= 0 and y[0] + 3 * y[1] > 0
    status, x = solve_equalities_nonneg(
        [[Fraction(1, 2), 1, 0], [0, 1, 1]], [Fraction(1), Fraction(2)])
    assert status == FEASIBLE and min(x) >= 0
    assert x[0] / 2 + x[1] == 1 and x[1] + x[2] == 2
    # no rows: feasible; no columns: the signs of b prove infeasibility
    assert solve_equalities_nonneg([], []) == (FEASIBLE, [])
    assert solve_equalities_nonneg([[], []], [0, -2]) == (
        INFEASIBLE, [Fraction(0), Fraction(-1)])
    assert solve_equalities_box_float([[1.0]], [1.0]) == (FEASIBLE, [1.0])
    assert solve_equalities_box_float([[1.0]], [2.0]) == (INFEASIBLE, None)


def test_one_column_quotients_make_no_linprog_call(monkeypatch):
    # each host is edge-transitive, so its quotient has one unknown, which
    # a division decides: no sparse matrix and no HiGHS call in either mode
    k55 = Graph(10, [(u, 5 + v) for u in range(5) for v in range(5)])
    called = _methods(monkeypatch)
    sparses = _sparses(monkeypatch)
    for pattern, host, q in ((K3, complete_graph(7), 5),
                             (K3, complete_graph(25), 23),
                             (K3, complete_graph(34), 32),
                             (cycle_graph(4), k55, 16)):
        exact = fractional_decompose(pattern, host, mode="rational")
        approx = fractional_decompose(pattern, host, mode="float")
        assert exact.status == approx.status == FEASIBLE
        assert set(exact.solution.weights) == {Fraction(1, q)}
        assert set(approx.solution.weights) == {1 / q}
        assert _exact_loads(pattern, exact.solution) == {
            e: 1 for e in host.edges}
    assert called == [] and sparses == []


def test_edge_regular_hosts_build_no_per_edge_lists(monkeypatch):
    # every edge of K25 lies in 23 triangles, and every edge of the Chang
    # graph, which is not edge-transitive, in 6: the degree round leaves one
    # edge class, so neither the copies through each edge nor a quotient
    # array is built
    def refuse(*args):
        raise AssertionError("built on an edge-regular host")

    chang = _chang()
    # no automorphism maps an edge in 8 K4s to one in 9 or 10
    k4s = Counter(e for im in candidate_copies(complete_graph(4), chang)
                  for e in combinations(sorted(im), 2))
    assert Counter(k4s.values()) == {8: 48, 9: 96, 10: 24}
    monkeypatch.setattr(solver, "_by_item", refuse)
    monkeypatch.setattr(solver, "_quotient", refuse)
    for host, q in ((complete_graph(25), 23), (chang, 6)):
        exact = fractional_decompose(K3, host, mode="rational")
        approx = fractional_decompose(K3, host, mode="float")
        assert set(exact.solution.weights) == {Fraction(1, q)}
        assert set(approx.solution.weights) == {1 / q}
        assert _exact_loads(K3, exact.solution) == {e: 1 for e in host.edges}


def test_one_edge_class_answers_are_checked_on_every_edge(monkeypatch):
    # a wrong quotient answer on K25 (quotient [[23]]) must not be lifted:
    # z = 1/22 fails every edge's row 23 z = 1, and the uniform y = 1 lifts
    # to a y with yᵀA > 0, which proves nothing
    host = complete_graph(25)
    for answer in ((FEASIBLE, [Fraction(1, 22)]), (INFEASIBLE, [Fraction(1)])):
        monkeypatch.setattr(solver, "solve_equalities_nonneg",
                            lambda rows, rhs, answer=answer: answer)
        res = fractional_decompose(K3, host, mode="rational")
        assert res.status == INDETERMINATE and res.farkas is None
    monkeypatch.setattr(solver, "solve_equalities_box_float",
                        lambda rows, rhs, tolerance: (FEASIBLE, [1 / 22]))
    res = fractional_decompose(K3, host, mode="float")
    assert res.status == INDETERMINATE and res.solution is None


def test_float_one_column_solve_imports_no_scipy():
    # the one-column division runs before lp's lazy numpy and scipy imports
    src = os.path.dirname(os.path.dirname(solver.__file__))
    code = ("import sys\n"
            "from decomplab.graphs import complete_graph\n"
            "from decomplab.solver import fractional_decompose\n"
            "res = fractional_decompose(complete_graph(3), complete_graph(9),"
            " mode='float')\n"
            "print(res.status, sorted(m for m in ('scipy', 'scipy.optimize')"
            " if m in sys.modules))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "feasible []\n"


def _farkas_checks(rows, b, y):
    """yᵀA <= 0 and yᵀb > 0, by hand over Fraction."""
    return (all(sum(yi * row[j] for yi, row in zip(y, rows)) <= 0
                for j in range(len(rows[0])))
            and sum(yi * bi for yi, bi in zip(y, b)) > 0)


def test_one_column_systems(monkeypatch):
    called = _methods(monkeypatch)
    sparses = _sparses(monkeypatch)
    # consistent rows with x = 1/2, and with x = 0: answered by division
    for rows, b, want in (
            ([[2], [0], [Fraction(1, 2)], [3]],
             [1, 0, Fraction(1, 4), Fraction(3, 2)], Fraction(1, 2)),
            ([[1], [2]], [0, 0], Fraction(0))):
        assert solve_equalities_nonneg(rows, b) == (FEASIBLE, [want])
        assert solve_equalities_box_float(
            [[float(a) for a in row] for row in rows],
            [float(t) for t in b]) == (FEASIBLE, [float(want)])
    assert called == [] and sparses == []
    # x < 0, rows that disagree, and a zero column with b != 0 go to HiGHS,
    # and rational mode proves each infeasible
    for rows, b in (([[1], [2]], [-1, -2]),
                    ([[1], [1]], [1, 2]),
                    ([[0], [0]], [0, 1])):
        status, y = solve_equalities_nonneg(rows, b)
        assert status == INFEASIBLE and _farkas_checks(rows, b, y)
        assert solve_equalities_box_float(rows, [float(t) for t in b]) == (
            INFEASIBLE, None)
    assert called
    # a zero column, and a system with two columns, go to HiGHS by way of
    # the sparse matrix in both modes
    for rows, b, want in (([[0], [0]], [0, 1], INFEASIBLE),
                          ([[1, 1], [2, 0]], [1, 1], FEASIBLE)):
        called.clear()
        sparses.clear()
        assert solve_equalities_nonneg(rows, b)[0] == want
        assert solve_equalities_box_float(rows, [float(t) for t in b])[0] == (
            want)
        n = len(rows[0])
        assert sparses == [(n, True), (n, False)] and called
    # x = 2 solves the rows, but float mode's box is [0, 1]
    assert solve_equalities_nonneg([[1], [2]], [2, 4]) == (
        FEASIBLE, [Fraction(2)])
    assert solve_equalities_box_float([[1.0], [2.0]], [2.0, 4.0]) == (
        INFEASIBLE, None)


def test_proves_infeasible_over_fraction_coefficients():
    # -x0/2 - 3x1/2 = 0 forces x = 0, and then x0/3 + x1 = 1 fails
    rows = [[Fraction(1, 3), 1], [Fraction(-1, 2), Fraction(-3, 2)]]
    b = [Fraction(1), Fraction(0)]
    entries = [list(enumerate(row)) for row in rows]
    y = [Fraction(3), Fraction(2)]   # yᵀA = 0 and yᵀb = 3
    assert lp._proves_infeasible(entries, 2, b, y)
    assert _farkas_checks(rows, b, y)
    # the smallest failures: yᵀA[0] = 1/(2 * 10**6) > 0, and yᵀb = 0
    for y in ([Fraction(3), 2 - Fraction(1, 10 ** 6)],
              [Fraction(0), Fraction(1)]):
        assert not lp._proves_infeasible(entries, 2, b, y)
        assert not _farkas_checks(rows, b, y)
    # it agrees with the check by hand on random signs and denominators
    rng = random.Random(27)
    for _ in range(200):
        rows = [[Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                 for _ in range(3)] for _ in range(3)]
        b = [Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in rows]
        y = [Fraction(rng.randint(-2, 2), rng.randint(1, 5)) for _ in rows]
        entries = [[(j, a) for j, a in enumerate(row) if a] for row in rows]
        assert lp._proves_infeasible(entries, 3, b, y) == _farkas_checks(
            rows, b, y)
