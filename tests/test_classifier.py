from fractions import Fraction
from functools import reduce
from math import gcd

import pytest

from decomplab.classifier import (DELTA_FULL, DELTA_VX, FRACTIONAL_SYMBOL,
                                  classify_bipartite, classify_vx,
                                  discretisation_candidates)
from decomplab.cli import EXIT_OK, run
from decomplab.graphio import serialize_edge_list
from decomplab.graphs import (complete_bipartite, complete_graph, cycle_graph,
                              disjoint_union, path_graph)
from test_invariants import connected_subset_tau, oracle_theta


def test_three_and_four_colours_keep_the_fractional_threshold_symbolic():
    # the paper proves delta_F <= max{delta*_F, 1 - 1/(chi+1)}; 3/4 alone
    # for the triangle would be the open Nash-Williams conjecture
    for chi in (3, 4):
        rep = discretisation_candidates(complete_graph(chi))
        assert rep.quantity == DELTA_FULL and rep.kind == "bound"
        assert rep.value is None
        assert rep.value_set == (FRACTIONAL_SYMBOL, 1 - Fraction(1, chi + 1))


def test_five_colours_give_three_candidates():
    rep = discretisation_candidates(complete_graph(5))
    assert rep.kind == "set"
    assert rep.value_set == (FRACTIONAL_SYMBOL, Fraction(4, 5), Fraction(5, 6))


# Result (iii): a bipartite pattern's threshold is 2/3 when tau > 1, 0 when
# tau_tilde = 1 and the pattern has a bridge, and 1/2 otherwise.  Each row
# gives tau (the brute-force oracle), tau_tilde (the gcd of the component
# edge counts) and whether there is a bridge, then the value they force.
@pytest.mark.parametrize("f, tau, tau_tilde, bridge, delta", [
    pytest.param(cycle_graph(4), 2, 4, False, Fraction(2, 3), id="C4"),
    pytest.param(complete_bipartite(3, 3), 3, 9, False, Fraction(2, 3),
                 id="K33"),
    pytest.param(cycle_graph(6), 1, 6, False, Fraction(1, 2), id="C6"),
    pytest.param(complete_bipartite(2, 3), 1, 6, False, Fraction(1, 2),
                 id="K23"),
    pytest.param(path_graph(2), 1, 2, True, Fraction(1, 2), id="P3"),
    pytest.param(disjoint_union(complete_graph(2), path_graph(2)), 1, 1,
                 True, Fraction(0), id="K2+P3"),
])
def test_bipartite_threshold_follows_result_iii(f, tau, tau_tilde, bridge,
                                                delta):
    assert connected_subset_tau(f) == tau
    assert reduce(gcd, [len(f.induced_edges(c))
                        for c in f.components()], 0) == tau_tilde
    assert f.has_bridge() == bridge
    rep = classify_bipartite(f)
    assert (rep.quantity, rep.kind, rep.value) == (DELTA_FULL, "exact", delta)


@pytest.mark.parametrize("r", [4, 5])
def test_a_clique_covers_a_vertex_at_one_minus_one_over_chi(r):
    # K_r has chi = r, and every class difference at a vertex is 0, so
    # theta takes the convention 2 and the threshold is 1 - 1/chi exact
    assert oracle_theta(complete_graph(r)) == 2
    rep = classify_vx(complete_graph(r))
    assert (rep.quantity, rep.kind, rep.value) == (
        DELTA_VX, "exact", 1 - Fraction(1, r))


def test_three_colours_give_only_the_upper_bound():
    rep = classify_vx(complete_graph(3))
    assert (rep.kind, rep.value, rep.interval) == ("bound", Fraction(2, 3),
                                                   None)


def test_theta_one_needs_the_edge_threshold():
    # K5 - e: chi = 4, theta = 1.  A vertex in the last class has at least
    # one neighbour alone in its class, so sigma = 1 and d/(d - sigma) is
    # 4/3 at a degree-4 vertex and 3/2 at a degree-3 one: chi_vx =
    # (chi - 2) * 4/3 = 8/3, and the space bound is 1 - 1/(chi_vx + 1) = 8/11
    f = complete_graph(5).without_edges([(3, 4)])
    assert oracle_theta(f) == 1
    rep = classify_vx(f)
    assert (rep.kind, rep.interval) == ("interval",
                                        (Fraction(8, 11), Fraction(3, 4)))
    rep = classify_vx(f, Fraction(9, 10))
    assert (rep.kind, rep.value) == ("exact", Fraction(9, 10))


def test_the_cli_classifies_c4_at_two_thirds(tmp_path):
    path = tmp_path / "c4.txt"
    path.write_text(serialize_edge_list(cycle_graph(4)))
    res = run(["classify", str(path)])
    assert res.exit_code == EXIT_OK
    assert res.payload["delta_F"] == {"num": 2, "den": 3}
