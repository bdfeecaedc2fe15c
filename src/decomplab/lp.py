"""Feasibility LPs for fractional decomposition: x >= 0 with A x = b.

A is a list of equal-length rows, each a list or a 1-D array.  Both modes
hand its nonzeros to scipy's HiGHS dual simplex as a sparse matrix and
return (status, vector).  Float mode's `feasible` x meets every row within a
tolerance; its `infeasible` is HiGHS's claim, not a proof.  Rational mode
certifies over `Fraction` (Applegate, Cook, Dash and Espinoza, "Exact
solutions to linear programming problems", Oper. Res. Lett. 2007): its x is
the rationalised vertex or else the exact solution on the vertex's support
columns, which are independent, and is returned only once A x = b and x >= 0
hold exactly; its `infeasible` comes with a rationalised Farkas vector y
that satisfies yᵀA <= 0 and yᵀb > 0 exactly, a proof that no x exists.
When neither check passes the status is `indeterminate`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
INDETERMINATE = "indeterminate"

_DENOMINATOR = 10 ** 6   # largest denominator tried when rationalising
_ZERO = 1e-9             # HiGHS values at or below this are off the support


def _sparse(rows, n):
    """Per row, the (column, value) pairs of its nonzeros; and A as a float
    CSR matrix for HiGHS."""
    import numpy as np
    from scipy.sparse import csr_matrix
    a = np.asarray(rows)
    i, j = a.nonzero()
    values = a[i, j].tolist()
    indptr = np.searchsorted(i, np.arange(len(rows) + 1))
    pairs, cuts = list(zip(j.tolist(), values)), indptr.tolist()
    entries = [pairs[s:t] for s, t in zip(cuts, cuts[1:])]
    return entries, csr_matrix(
        ([float(v) for v in values], j, indptr), shape=(len(rows), n))


def _rationalise(v) -> list[Fraction]:
    return [Fraction(float(t)).limit_denominator(_DENOMINATOR) for t in v]


def _solves(entries, b, x) -> bool:
    """A x = b and x >= 0, exactly."""
    return min(x) >= 0 and all(sum(a * x[j] for j, a in row) == bi
                               for row, bi in zip(entries, b))


def _proves_infeasible(entries, n, b, y) -> bool:
    """yᵀA <= 0 and yᵀb > 0, exactly (Farkas' lemma)."""
    load = [0] * n
    for row, yi in zip(entries, y):
        for j, a in row:
            load[j] += a * yi
    return max(load) <= 0 and sum(bi * yi for bi, yi in zip(b, y)) > 0


def _solve_support(entries, n, b, support) -> Optional[list[Fraction]]:
    """The x with A x = b and x_j = 0 off `support`, by Gauss-Jordan
    elimination over Fraction on the augmented rows, whose column n holds b;
    None when a support column has no pivot."""
    eqs = [dict([(j, a) for j, a in row if j in support] + [(n, bi)])
           for row, bi in zip(entries, b)]
    free, x, pivots = set(range(len(eqs))), [Fraction(0)] * n, []
    for j in sorted(support):
        p = min((t for t in free if eqs[t].get(j)), key=lambda t: len(eqs[t]),
                default=None)
        if p is None:
            return None
        free.remove(p)
        piv = eqs[p] = {c: v / eqs[p][j] for c, v in eqs[p].items()}
        pivots.append((j, piv))
        for row in eqs:
            f = row.get(j)
            if f and row is not piv:
                for c, v in piv.items():
                    w = row.get(c, 0) - f * v
                    if w:
                        row[c] = w
                    else:
                        del row[c]
    for j, piv in pivots:
        x[j] = piv.get(n, Fraction(0))
    return x


def solve_equalities_nonneg(rows, rhs) -> tuple[str, Optional[list[Fraction]]]:
    """Decide x >= 0 with A x = b exactly: (`feasible`, x), (`infeasible`,
    y) with a checked Farkas vector, one entry per row, or
    (`indeterminate`, None)."""
    import numpy as np
    from scipy.optimize import linprog
    b = [Fraction(t) for t in rhs]
    n = len(rows[0]) if rows else 0
    if n == 0:
        # with no columns, the signs of b are a Farkas vector unless b = 0
        y = [Fraction((t > 0) - (t < 0)) for t in b]
        return (INFEASIBLE, y) if any(y) else (FEASIBLE, [])
    entries, A = _sparse(rows, n)
    entries = [[(j, Fraction(a)) for j, a in row] for row in entries]
    bf = np.array(b, dtype=float)
    res = linprog(np.zeros(n), A_eq=A, b_eq=bf, bounds=(0, None),
                  method="highs-ds")
    if res.status == 0:
        x = _rationalise(res.x)
        if not _solves(entries, b, x):
            support = set(np.flatnonzero(res.x > _ZERO).tolist())
            x = _solve_support(entries, n, b, support)
        if x is not None and _solves(entries, b, x):
            return FEASIBLE, x
        return INDETERMINATE, None
    # Farkas LP: maximise bᵀy subject to Aᵀy <= 0 in the box -1 <= y <= 1
    res = linprog(-bf, A_ub=A.T, b_ub=np.zeros(n), bounds=(-1, 1),
                  method="highs-ds")
    y = _rationalise(res.x) if res.status == 0 else None
    if y is not None and _proves_infeasible(entries, n, b, y):
        return INFEASIBLE, y
    return INDETERMINATE, None


def solve_equalities_box_float(rows, rhs, tolerance: float = 1e-9
                               ) -> tuple[str, Optional[list[float]]]:
    """x in [0, 1]^n with every row of A x = b within `tolerance`:
    (`feasible`, x), (`infeasible`, None) on HiGHS's word, or
    (`indeterminate`, None)."""
    import numpy as np
    from scipy.optimize import linprog
    b = np.array(rhs, dtype=float)
    n = len(rows[0]) if rows else 0
    if n == 0:
        return (INFEASIBLE, None) if b.any() else (FEASIBLE, [])
    _, A = _sparse(rows, n)
    res = linprog(np.zeros(n), A_eq=A, b_eq=b, bounds=(0, 1), method="highs-ds")
    if res.status != 0:
        return (INFEASIBLE if res.status == 2 else INDETERMINATE), None
    x = np.clip(res.x, 0.0, 1.0)
    if np.abs(A @ x - b).max() > tolerance:
        return INDETERMINATE, None
    return FEASIBLE, x.tolist()
