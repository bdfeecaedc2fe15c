"""Closed-form decomposition-threshold values for a concrete pattern.

Bipartite patterns get an exact value from the two gcd invariants and bridge
structure; wider patterns get the star-cover threshold where a formula
exists, and candidate sets or upper bounds where only those are known.  All
values are exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .errors import InputError
from .graphs import Graph
from .invariants import bipartite_invariants, colouring_invariants

DELTA_FULL = "decomposition_threshold"
DELTA_VX = "vertex_cover_threshold"
FRACTIONAL_SYMBOL = "fractional_threshold"


@dataclass
class ThresholdReport:
    quantity: str
    kind: str                        # exact | interval | set | bound
    value: Optional[Fraction] = None  # None on a bound: max(value_set)
    interval: Optional[tuple] = None
    value_set: tuple = ()            # rationals and/or symbolic strings
    rule: str = ""
    assumptions: list = field(default_factory=list)

    def __post_init__(self):
        for v in (self.value, *(self.interval or ()), *self.value_set):
            if isinstance(v, Fraction):
                assert 0 <= v <= 1


def classify_bipartite(f: Graph) -> ThresholdReport:
    """Exact threshold for a bipartite pattern: two thirds when the
    non-supporting counts share a factor, zero for coprime components with a
    bridge, one half otherwise."""
    if f.e < 2:
        raise InputError("pattern needs at least two edges")
    inv = bipartite_invariants(f)   # raises DomainError when not bipartite
    if inv.tau > 1:
        return ThresholdReport(DELTA_FULL, "exact", Fraction(2, 3),
                               rule="bipartite: tau > 1")
    if inv.tau_tilde == 1 and inv.bridge_edges:
        return ThresholdReport(DELTA_FULL, "exact", Fraction(0),
                               rule="bipartite: coprime components with a bridge")
    return ThresholdReport(DELTA_FULL, "exact", Fraction(1, 2),
                           rule="bipartite: default")


def classify_vx(f: Graph, delta_e: Optional[Fraction] = None) -> ThresholdReport:
    """Threshold for covering all edges at one vertex.

    Bipartite: zero with a bridge, one half without.  With at least four
    colours: 1 - 1/chi when the class-difference gcd exceeds one; otherwise
    the edge-cover threshold enters and only an interval is known unless it
    is supplied.  Three colours: only the upper bound 1 - 1/chi.
    """
    if f.e < 2:
        raise InputError("pattern needs at least two edges")
    inv = colouring_invariants(f)
    chi = inv.chi
    if chi == 2:
        if f.has_bridge():
            return ThresholdReport(DELTA_VX, "exact", Fraction(0),
                                   rule="bipartite with a bridge")
        return ThresholdReport(DELTA_VX, "exact", Fraction(1, 2),
                               rule="bipartite without a bridge")
    upper = 1 - Fraction(1, chi)
    if chi == 3:
        return ThresholdReport(
            DELTA_VX, "bound", upper,
            rule="three colours: only the upper bound 1 - 1/chi is known",
            assumptions=["no exact formula at three colours"])
    if inv.theta != 1:
        return ThresholdReport(DELTA_VX, "exact", upper,
                               rule="class-difference gcd above one")
    space = 1 - Fraction(1, inv.chi_vx + 1)
    if delta_e is not None:
        delta_e = Fraction(delta_e)
        if not (0 <= delta_e <= 1):
            raise InputError("edge threshold must lie in [0, 1]")
        return ThresholdReport(
            DELTA_VX, "exact", max(space, delta_e),
            rule="max of the space bound and the supplied edge threshold",
            assumptions=[f"edge-cover threshold supplied as {delta_e}"])
    return ThresholdReport(
        DELTA_VX, "interval", interval=(space, upper),
        rule="class-difference gcd one: exact value needs the edge threshold",
        assumptions=["edge-cover threshold is an input here"])


def discretisation_candidates(f: Graph) -> ThresholdReport:
    """Candidate values for the full threshold.

    Bipartite delegates to the exact classifier; five or more colours give a
    three-element candidate set with the fractional threshold symbolic; three
    or four colours only yield the upper bound max{fractional threshold,
    1 - 1/(chi+1)}, again with the fractional threshold symbolic.
    """
    if f.e < 2:
        raise InputError("pattern needs at least two edges")
    inv = colouring_invariants(f)
    chi = inv.chi
    if chi <= 2:
        return classify_bipartite(f)
    if chi >= 5:
        return ThresholdReport(
            DELTA_FULL, "set",
            value_set=(FRACTIONAL_SYMBOL,
                       1 - Fraction(1, chi), 1 - Fraction(1, chi + 1)),
            rule="five or more colours: three candidates",
            assumptions=["first member is the fractional threshold, "
                         "not computed here"])
    report = ThresholdReport(
        DELTA_FULL, "bound",
        value_set=(FRACTIONAL_SYMBOL, 1 - Fraction(1, chi + 1)),
        rule="three or four colours: upper bound max(value_set); "
             "no discretisation",
        assumptions=["first member is the fractional threshold, "
                     "not computed here"])
    if f == Graph(3, [(0, 1), (0, 2), (1, 2)]):
        report.assumptions.append(
            "triangle: fractional threshold known to be at most 9/10")
    return report
