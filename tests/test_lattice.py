import random
import time
from itertools import product

import pytest

from decomplab.divisibility import check_divisibility
from decomplab.extremal import generate_extremal
from decomplab.graphs import (Graph, complete_bipartite, complete_graph,
                              cycle_graph, norm_edge, path_graph)
from decomplab.lattice import (LatticeCertificate, _span_certificate_dicts,
                               lattice_primes, lattice_refutation,
                               span_certificate, verify_lattice_certificate)
from decomplab.solver import (SAT, UNSAT_EXHAUSTED, UNSAT_LATTICE,
                              candidate_copies, exact_decompose)

K3 = complete_graph(3)
C4 = cycle_graph(4)
PAW = Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])


def _columns(pattern, g):
    """Each candidate copy's edge indices in sorted(E(g))."""
    index = {e: i for i, e in enumerate(sorted(g.edges))}
    return [[index[norm_edge(img[u], img[v])] for u, v in pattern.edges]
            for img in candidate_copies(pattern, g)]


def test_primes_are_two_then_those_of_the_edge_count_and_degree_gcd():
    assert lattice_primes(K3) == (2, 3)
    assert lattice_primes(C4) == (2,)
    assert lattice_primes(complete_graph(4)) == (2, 3)
    assert lattice_primes(cycle_graph(5)) == (2, 5)
    assert lattice_primes(PAW) == (2,)


# the instances of test_extremal.py but C4 halves m=1 (146k copies)
@pytest.mark.parametrize("pattern, family, m", [
    pytest.param(C4, "tau_23", 2, id="C4-tau_23"),
    pytest.param(complete_bipartite(3, 3), "tau_23", 1, id="K33-tau_23"),
    pytest.param(path_graph(2), "halves", 1, id="P3-halves"),
    pytest.param(complete_graph(4), "theta", 1, id="K4-theta"),
    pytest.param(K3, "space", 1, id="K3-space"),
])
def test_extremal_instances_are_refuted(pattern, family, m):
    g = generate_extremal(pattern, family, m).graph
    report = check_divisibility(pattern, g)
    if not (report.edge_divisible and report.degree_divisible):
        return
    cert, tried = lattice_refutation(pattern, _columns(pattern, g), g.e)
    assert cert is not None and tried[-1] == cert.modulus
    ok, why = verify_lattice_certificate(pattern, g, cert)
    assert ok, why
    if family == "space":
        # every triangle meets the obstruction in 0 or 3 edges: a mod-3 proof
        assert cert.modulus == 3 and tried == (2, 3)


def test_exact_search_ends_with_a_checked_certificate_at_the_trigger():
    g = generate_extremal(C4, "tau_23", 2).graph
    # its rational LP is feasible, and the search alone ran out of time
    res = exact_decompose(C4, g, timeout=30)
    assert res.status == UNSAT_LATTICE and res.decomposition is None
    assert res.nodes == g.e == 172 and res.primes_tried == (2,)
    ok, why = verify_lattice_certificate(C4, g, res.lattice)
    assert ok, why


def test_elimination_gives_up_at_the_deadline():
    g = generate_extremal(C4, "tau_23", 2).graph
    cols = _columns(C4, g)
    assert span_certificate(cols, g.e, 2) is not None
    past = time.monotonic() - 1
    # p = 2 runs on bitsets, the dict vectors serve every odd p
    assert span_certificate(cols, g.e, 2, deadline=past) is None
    assert _span_certificate_dicts(cols, g.e, 2, deadline=past) is None
    assert lattice_refutation(C4, cols, g.e, deadline=past) == (None, ())


def _gf2_certificates(columns, rows):
    """Brute force: every y in GF(2)^rows with yᵀc ≡ 0 for each column c
    and Σy ≡ 1."""
    return {y for y in product((0, 1), repeat=rows)
            if sum(y) % 2
            and not any(sum(y[i] for i in c) % 2 for c in columns)}


def test_gf2_elimination_matches_brute_force():
    rng = random.Random(3)
    outcomes = set()
    for _ in range(300):
        rows = rng.randint(1, 10)
        cols = [rng.sample(range(rows), rng.randint(1, rows))
                for _ in range(rng.randint(0, 12))]
        y = span_certificate(cols, rows, 2)
        ys = _gf2_certificates(cols, rows)
        assert (y is None) == (not ys)
        assert y is None or tuple(y) in ys
        assert y == _span_certificate_dicts(cols, rows, 2, None)
        outcomes.add(y is None)
    assert outcomes == {True, False}


def test_primes_tried_are_recorded_when_none_refutes():
    # a paw host the search refutes only after |E| = 16 nodes
    g = Graph(8, [(0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 4), (1, 5),
                  (2, 3), (2, 5), (3, 4), (3, 5), (4, 5), (4, 6), (4, 7),
                  (5, 6), (5, 7)])
    res = exact_decompose(PAW, g)
    assert res.status == UNSAT_EXHAUSTED and res.nodes > g.e
    assert res.lattice is None and res.primes_tried == (2,)


def test_a_search_that_finishes_early_never_runs_the_check():
    res = exact_decompose(K3, complete_graph(27))
    assert res.status == SAT and res.nodes == 123 < 351
    assert res.primes_tried == ()


def test_checker_rejects_a_flipped_entry():
    for pattern, family, m in ((K3, "space", 1), (C4, "tau_23", 2)):
        g = generate_extremal(pattern, family, m).graph
        cert, _ = lattice_refutation(pattern, _columns(pattern, g), g.e)
        p, y = cert.modulus, cert.y
        for k in range(0, g.e, 5):
            bad = LatticeCertificate(p, y[:k] + ((y[k] + 1) % p,) + y[k + 1:])
            ok, why = verify_lattice_certificate(pattern, g, bad)
            assert not ok and ("copy" in why or "sum to 0" in why)


def test_checker_rejects_a_certificate_computed_without_one_copy():
    g = generate_extremal(K3, "space", 1).graph
    cols = _columns(K3, g)
    y = span_certificate(cols[1:], g.e, 3)
    assert sum(y[i] for i in cols[0]) % 3          # the dropped copy
    ok, why = verify_lattice_certificate(K3, g,
                                         LatticeCertificate(3, tuple(y)))
    assert not ok and "copy" in why


def test_checker_rejects_malformed_certificates():
    g = generate_extremal(K3, "space", 1).graph
    cert, _ = lattice_refutation(K3, _columns(K3, g), g.e)
    y = cert.y
    for bad, word in ((LatticeCertificate(9, y), "prime"),
                      (LatticeCertificate(1, y), "prime"),
                      (LatticeCertificate(3, y[1:]), "entries"),
                      (LatticeCertificate(3, tuple(0 for _ in y)), "sum")):
        ok, why = verify_lattice_certificate(K3, g, bad)
        assert not ok and word in why


def _packed_host(pattern, rng):
    """A host whose edges are a union of edge-disjoint copies of `pattern`."""
    n = rng.randint(pattern.n + 1, 12)
    edges = set()
    for _ in range(rng.randint(1, 9)):
        img = rng.sample(range(n), pattern.n)
        new = {norm_edge(img[u], img[v]) for u, v in pattern.edges}
        if not new & edges:
            edges |= new
    return Graph(n, edges)


@pytest.mark.parametrize("pattern", [K3, C4, PAW, complete_graph(4),
                                     path_graph(2)])
def test_elimination_never_refutes_a_decomposable_host(pattern):
    rng = random.Random(pattern.e * 7919 + pattern.n)
    for _ in range(25):
        g = _packed_host(pattern, rng)
        cols = _columns(pattern, g)
        for p in (2, 3, 5, 7):
            assert span_certificate(cols, g.e, p) is None
        assert lattice_refutation(pattern, cols, g.e)[0] is None
