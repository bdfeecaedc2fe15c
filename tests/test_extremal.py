import hashlib
from dataclasses import replace
from fractions import Fraction

import pytest

from decomplab.extremal import (BRIDGE_CUT, TAU_COUNT, THETA_COUNT,
                                generate_extremal, obstruction_check)
from decomplab.divisibility import check_divisibility
from decomplab.errors import StructureError
from decomplab.graphs import (Graph, complete_bipartite, complete_graph,
                              cycle_graph, disjoint_union, path_graph)
from decomplab.lattice import verify_lattice_certificate
from decomplab.solver import UNSAT_LATTICE, exact_decompose


@pytest.mark.parametrize("pattern, family, m", [
    pytest.param(cycle_graph(4), "tau_23", 2, id="C4-tau_23"),
    pytest.param(complete_bipartite(3, 3), "tau_23", 1, id="K33-tau_23"),
    pytest.param(path_graph(2), "halves", 1, id="P3-halves"),
    pytest.param(cycle_graph(4), "halves", 1, id="C4-halves"),
    pytest.param(complete_graph(4), "theta", 1, id="K4-theta"),
    pytest.param(complete_graph(3), "space", 1, id="K3-space"),
])
def test_reports_carry_the_min_degree_ratio(pattern, family, m):
    inst = generate_extremal(pattern, family, m)
    g = inst.graph
    degrees = [sum(1 for e in g.edges if x in e) for x in range(g.n)]
    assert inst.report["min_degree_ratio"] == Fraction(min(degrees), g.n)


@pytest.mark.parametrize("pattern, family, m, n, e, digest", [
    pytest.param(cycle_graph(4), "tau_23", 2, 23, 172, "08e42749a4ee7fcf",
                 id="C4-tau_23-2"),
    pytest.param(complete_bipartite(3, 3), "tau_23", 1, 17, 90,
                 "a1e614c63d2e6d10", id="K33-tau_23-1"),
    pytest.param(path_graph(2), "halves", 1, 18, 54, "7f973fea8014a0dc",
                 id="P3-halves-1"),
    pytest.param(cycle_graph(4), "halves", 1, 66, 924, "dfa8a077e6270d7f",
                 id="C4-halves-1"),
    pytest.param(disjoint_union(cycle_graph(4), complete_bipartite(3, 3)),
                 "halves", 1, 26, 156, "e0c5959a2a190149",
                 id="C4+K33-halves-1"),
    pytest.param(complete_graph(4), "theta", 1, 12, 53, "4f06be65c12b3e62",
                 id="K4-theta-1"),
])
def test_family_graph_is_golden(pattern, family, m, n, e, digest):
    # pins the Hamilton cycles each repair removes, and the clique layout
    g = generate_extremal(pattern, family, m).graph
    assert (g.n, g.e) == (n, e)
    assert hashlib.sha256(
        repr(sorted(g.edges)).encode()).hexdigest()[:16] == digest


# K3,3 + Q3: r = 3 odd and tau_tilde = gcd(9, 12) = 3 = r, so halves takes
# the odd-regular-bridge branch
Q3 = Graph(8, [(a, a | 1 << i) for a in range(8) for i in range(3)
               if not a >> i & 1])
K33_Q3 = disjoint_union(complete_bipartite(3, 3), Q3)


@pytest.mark.parametrize("m, n, e, ratio", [
    (62, 374, 29211, Fraction(123, 374)), (63, 380, 35889, Fraction(93, 190))])
def test_halves_odd_regular_bridge(m, n, e, ratio):
    inst = generate_extremal(K33_Q3, "halves", m)
    g, cert = inst.graph, inst.certificate
    assert (g.n, g.e) == (n, e)
    assert inst.report["style"] == "odd_regular_bridge"
    # the edge-count repair removes up to (e(F) - 1) * 3 Hamilton cycles,
    # so the ratio is not monotone in m
    assert inst.report["min_degree_ratio"] == ratio
    assert check_divisibility(K33_Q3, g).divisible
    assert cert.kind == BRIDGE_CUT
    assert obstruction_check(K33_Q3, g, cert)


def test_halves_odd_regular_bridge_refuses_a_small_scale():
    with pytest.raises(StructureError):
        generate_extremal(K33_Q3, "halves", 61)


# From m=3 on, tau_23's claimed degree bound for C4 is positive, so the
# generator's min-degree assertion is no longer vacuous; for K3,3 the first
# scale with a positive bound is m=7 (n=125).
@pytest.mark.parametrize("pattern, m, bound", [
    pytest.param(cycle_graph(4), 3, 3, id="3-3"),
    pytest.param(cycle_graph(4), 4, 11, id="4-11"),
    pytest.param(complete_bipartite(3, 3), 7, 23, id="K33-7-23"),
])
def test_c4_tau_23_meets_a_positive_degree_bound(pattern, m, bound):
    inst = generate_extremal(pattern, "tau_23", m)
    assert inst.report["claimed_bound"] == bound > 0
    assert inst.report["min_degree"] == inst.graph.min_degree() >= bound


def test_c4_tau_23_at_a_biting_scale_has_a_checked_lattice_refutation():
    c4 = cycle_graph(4)
    g = generate_extremal(c4, "tau_23", 3).graph
    res = exact_decompose(c4, g, timeout=60)
    assert res.status == UNSAT_LATTICE
    ok, why = verify_lattice_certificate(c4, g, res.lattice)
    assert ok, why


def _certified():
    """(pattern, graph, certificate) for each kind of obstruction that
    `obstruction_check` revalidates."""
    for pattern, family, m, kind, closed in [
            # a copy meets the region in a non-supporting set
            (cycle_graph(4), "tau_23", 2, TAU_COUNT, False),
            # the region is a whole component: a copy meets it in components
            (path_graph(2), "halves", 1, TAU_COUNT, True),
            (disjoint_union(cycle_graph(4), complete_bipartite(3, 3)),
             "halves", 1, BRIDGE_CUT, False),
            (complete_graph(4), "theta", 1, THETA_COUNT, False)]:
        inst = generate_extremal(pattern, family, m)
        g, cert = inst.graph, inst.certificate
        assert cert.kind == kind
        assert closed == (not any((u in cert.region) != (v in cert.region)
                                  for u, v in g.edges))
        yield pattern, g, cert


@pytest.mark.parametrize("mutate", [
    pytest.param(lambda c, n: replace(c, region=c.region - {min(c.region)}),
                 id="region-minus-a-vertex"),
    pytest.param(lambda c, n: replace(c, residue=c.residue + 1),
                 id="residue-plus-one"),
    pytest.param(lambda c, n: replace(c, modulus=1), id="modulus-one"),
    pytest.param(lambda c, n: replace(c, region=c.region | {n}),
                 id="region-vertex-out-of-range"),
])
def test_obstruction_check_accepts_each_kind_and_refuses_a_mutation(mutate):
    for pattern, g, cert in _certified():
        assert obstruction_check(pattern, g, cert), cert.kind
        assert not obstruction_check(pattern, g, mutate(cert, g.n)), cert.kind
