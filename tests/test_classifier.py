from fractions import Fraction

from decomplab.classifier import (DELTA_FULL, FRACTIONAL_SYMBOL,
                                  discretisation_candidates)
from decomplab.graphs import complete_graph


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
