from fractions import Fraction

import pytest

from decomplab.extremal import generate_extremal
from decomplab.graphs import (complete_bipartite, complete_graph, cycle_graph,
                              path_graph)


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
