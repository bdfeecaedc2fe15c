from dataclasses import replace
from fractions import Fraction

import pytest

from decomplab.extremal import (BRIDGE_CUT, DEGREE_PARITY, TAU_COUNT,
                                THETA_COUNT, ObstructionCertificate,
                                generate_extremal, obstruction_check)
from decomplab.graphs import (complete_bipartite, complete_graph, cycle_graph,
                              disjoint_union, path_graph)
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
    ok, why = verify_lattice_certificate(c4, g, g.edges, res.lattice)
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
    # the centre of K1,3 has odd degree, and every K3 degree is even
    yield (complete_graph(3), complete_bipartite(1, 3),
           ObstructionCertificate(DEGREE_PARITY, {0}, 2, 1))


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
