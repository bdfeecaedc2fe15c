"""Feasibility LPs for fractional decomposition: x >= 0 with A x = b.

A is a list of equal-length rows, each a list or a 1-D array, and both
modes return (status, vector).  `solver.fractional_decompose` hands these
functions the LP's quotient by the coarsest equitable partition of its
matrix, which is 1 x 1 on an edge-transitive host, and checks the lifted
answer on the full system with `_solves` and `_proves_infeasible`.  A system
with one column has one candidate, x = b_i / a_i at the first row with a
nonzero, read from the rows as they are; it is returned with no sparse
matrix and no HiGHS call once it passes its mode's check below, and on an
edge-transitive host that answers the whole LP.  Every other system has its
nonzeros handed to scipy's HiGHS as a sparse matrix.

Float mode tries HiGHS's interior point without crossover first, which on a
symmetric system lands on a point with few distinct values, and falls back
to the dual-simplex vertex; its `feasible` x meets every row within a
tolerance, and its `infeasible` is HiGHS's claim, not a proof.

Rational mode certifies over `Fraction` (Applegate, Cook, Dash and
Espinoza, "Exact solutions to linear programming problems", Oper. Res.
Lett. 2007): its x is the one-column division, else HiGHS's dual-simplex
vertex rationalised, else the exact solution on the vertex's support
columns, which are independent, and is returned only once A x = b and
x >= 0 hold exactly.  With no vertex, its `infeasible` comes with a
rationalised Farkas vector y that satisfies yᵀA <= 0 and yᵀb > 0 exactly, a
proof that no x exists.  The exact checks are the only judge, and HiGHS's
statuses only choose which candidate to check next; when no check passes
the status is `indeterminate`.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import index
from typing import Optional

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
INDETERMINATE = "indeterminate"

_DENOMINATOR = 10 ** 6   # largest denominator tried when rationalising
_ZERO = 1e-9             # HiGHS values at or below this are off the support


def _sparse(rows, n, exact: bool):
    """A as a float CSR matrix for HiGHS; and with `exact`, per row, the
    (column, exact value) pairs of its nonzeros, each value an int or a
    `Fraction`, else None."""
    import numpy as np
    from scipy.sparse import csr_matrix
    a = np.asarray(rows)
    i, j = a.nonzero()
    values = a[i, j]
    indptr = np.searchsorted(i, np.arange(len(rows) + 1))
    A = csr_matrix((values.astype(float), j, indptr), shape=(len(rows), n))
    if not exact:
        return A, None
    ints = values.dtype.kind in "biu"
    pairs = list(zip(j.tolist(), values.tolist() if ints
                     else map(Fraction, values.tolist())))
    cuts = indptr.tolist()
    return A, [pairs[s:t] for s, t in zip(cuts, cuts[1:])]


def _exact(a):
    """An entry of A as an int, or else as a Fraction of its value."""
    try:
        return index(a)
    except TypeError:
        return Fraction(a)


def _interior(A, b):
    """HiGHS's interior point without crossover on A x = b, 0 <= x <= 1:
    linprog's (status, x)."""
    import re
    import warnings
    import numpy as np
    from scipy.optimize import OptimizeWarning, linprog
    with warnings.catch_warnings():
        # scipy does not know the HiGHS option and says it passes it on
        warnings.filterwarnings("ignore", re.escape(
            "Unrecognized options detected: {'run_crossover': 'off'}"),
            OptimizeWarning)
        res = linprog(np.zeros(A.shape[1]), A_eq=A, b_eq=b,
                      bounds=(0, 1), method="highs-ipm",
                      options={"run_crossover": "off"})
    return res.status, res.x


def _rationalise(v) -> list[Fraction]:
    """The nearest fraction to each entry with denominator at most
    `_DENOMINATOR`, worked out once per distinct value."""
    import numpy as np
    values, at = np.unique(np.asarray(v, dtype=float), return_inverse=True)
    near = [Fraction(t).limit_denominator(_DENOMINATOR)
            for t in values.tolist()]
    return [near[k] for k in at.tolist()]


def _solves(entries, b, x) -> bool:
    """A x = b and x >= 0, exactly: over integers, with x scaled by the
    least common denominator d of its entries and b by d."""
    d = lcm(*{t.denominator for t in x})
    scaled = [t.numerator * (d // t.denominator) for t in x]
    # a denominator is positive, so each scaled entry has its x's sign
    if min(scaled, default=0) < 0:
        return False
    return all(sum(a * scaled[j] for j, a in row) == bi * d
               for row, bi in zip(entries, b))


def _proves_infeasible(entries, n, b, y) -> bool:
    """yᵀA <= 0 and yᵀb > 0, exactly (Farkas' lemma): over integers, with y
    scaled by the least common denominator of its entries, which keeps
    every sign; rows where y is zero are skipped."""
    d = lcm(*{t.denominator for t in y})
    scaled = [(i, t.numerator * (d // t.denominator))
              for i, t in enumerate(y) if t]
    load = [0] * n
    for i, yi in scaled:
        for j, a in entries[i]:
            load[j] += a * yi
    return (max(load, default=0) <= 0
            and sum(b[i] * yi for i, yi in scaled) > 0)


def _solve_support(entries, n, b, support) -> Optional[list[Fraction]]:
    """The x with A x = b and x_j = 0 off `support`, by Gauss-Jordan
    elimination over Fraction on the augmented rows, whose column n holds b;
    None when a support column has no pivot."""
    eqs = [dict([(j, Fraction(a)) for j, a in row if j in support]
                + [(n, bi)]) for row, bi in zip(entries, b)]
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
    b = [Fraction(t) for t in rhs]
    n = len(rows[0]) if rows else 0
    if n == 0:
        # with no columns, the signs of b are a Farkas vector unless b = 0
        y = [Fraction((t > 0) - (t < 0)) for t in b]
        return (INFEASIBLE, y) if any(y) else (FEASIBLE, [])
    if n == 1:
        # one unknown: the first row with a nonzero fixes it
        col = [_exact(row[0]) for row in rows]
        x = next(([bi / a] for a, bi in zip(col, b) if a), None)
        if x is not None and _solves([[(0, a)] if a else [] for a in col],
                                     b, x):
            return FEASIBLE, x
    A, entries = _sparse(rows, n, exact=True)
    import numpy as np
    from scipy.optimize import linprog
    bf = np.array(b, dtype=float)
    res = linprog(np.zeros(n), A_eq=A, b_eq=bf, bounds=(0, None),
                  method="highs-ds")
    if res.status == 0:
        x = _rationalise(res.x)
        if not _solves(entries, b, x):
            support = set(np.flatnonzero(res.x > _ZERO).tolist())
            x = _solve_support(entries, n, b, support)
            if x is None or not _solves(entries, b, x):
                return INDETERMINATE, None
        return FEASIBLE, x
    # no vertex: maximise bᵀy subject to Aᵀy <= 0 in the box -1 <= y <= 1
    res = linprog(-bf, A_ub=A.T, b_ub=np.zeros(n), bounds=(-1, 1),
                  method="highs-ds")
    if res.status == 0:
        y = _rationalise(res.x)
        if _proves_infeasible(entries, n, b, y):
            return INFEASIBLE, y
    return INDETERMINATE, None


def solve_equalities_box_float(rows, rhs, tolerance: float = 1e-9
                               ) -> tuple[str, Optional[list[float]]]:
    """x in [0, 1]^n with every row of A x = b within `tolerance`:
    (`feasible`, x), (`infeasible`, None) on HiGHS's word, or
    (`indeterminate`, None)."""
    import numpy as np
    from scipy.optimize import linprog
    n = len(rows[0]) if rows else 0
    if n == 1:
        # one unknown: the first row with a nonzero fixes it; clipped and
        # checked with the float operations of the sparse product below
        col = [float(row[0]) for row in rows]
        bf = [float(t) for t in rhs]
        x = next((bi / a for a, bi in zip(col, bf) if a), None)
        if x is not None:
            x = min(max(x, 0.0), 1.0)
            if all(abs(a * x - bi) <= tolerance for a, bi in zip(col, bf)):
                return FEASIBLE, [x]
    b = np.array(rhs, dtype=float)
    if n == 0:
        return (INFEASIBLE, None) if b.any() else (FEASIBLE, [])
    A, _ = _sparse(rows, n, exact=False)

    def within(x):
        x = np.clip(x, 0.0, 1.0)
        return x if np.abs(A @ x - b).max() <= tolerance else None

    status, x = _interior(A, b)
    x = within(x) if status == 0 else None
    # an interior-point `infeasible` is HiGHS's word, as the vertex's is
    if x is None and status != 2:
        res = linprog(np.zeros(n), A_eq=A, b_eq=b, bounds=(0, 1),
                      method="highs-ds")
        status = res.status
        x = within(res.x) if status == 0 else None
    if x is not None:
        return FEASIBLE, x.tolist()
    return (INFEASIBLE if status == 2 else INDETERMINATE), None
