"""Recursive clique decomposition of prime-power complete graphs.

The balanced blow-up of a p-clique decomposes into cliques along constant-
difference index progressions when p is prime; the recursion peels clusters
of size p, handles the reduced complete graph inductively, and expands each
reduced clique through the blow-up step.
"""

from __future__ import annotations

from ..errors import DomainError, SizeGuardError
from ..graphs import Decomposition, EmbeddedCopy, complete_graph

DEFAULT_SIZE_GUARD = 2200


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _blowup_tuples(p: int) -> list[list[tuple[int, int]]]:
    """Vertex tuples (class, index) of the clique copies decomposing the
    balanced p-fold blow-up of a p-clique: one copy per (slope r, start i1),
    with indices advancing by r between consecutive classes."""
    out = []
    for r in range(p):
        for i1 in range(p):
            idx = i1
            tup = []
            for cls in range(p):
                tup.append((cls, idx))
                idx = (idx + r) % p
            out.append(tup)
    return out


def _decompose_clique_power(p: int, k: int) -> list[list[int]]:
    """Vertex tuples of the clique copies partitioning the edges of the
    complete graph on p**k vertices."""
    if k == 1:
        return [list(range(p))]
    m = p ** (k - 1)
    # clusters c*p .. c*p+p-1; each cluster's inside edges form one clique
    out = [[c * p + i for i in range(p)] for c in range(m)]
    blow = _blowup_tuples(p)
    for reduced in _decompose_clique_power(p, k - 1):
        # reduced is a clique on cluster ids; expand through its blow-up
        for tup in blow:
            out.append([reduced[cls] * p + idx for cls, idx in tup])
    return out


def clique_power_decomposition(p: int, k: int,
                               guard: int = DEFAULT_SIZE_GUARD) -> Decomposition:
    if not _is_prime(p):
        raise DomainError(f"{p} is not prime")
    if k < 1:
        raise DomainError("exponent must be positive")
    n = p ** k
    if n > guard:
        raise SizeGuardError(f"{n} vertices exceeds the guard {guard}")
    host = complete_graph(n)
    pattern = complete_graph(p)
    copies = [EmbeddedCopy(pattern, tuple(t))
              for t in _decompose_clique_power(p, k)]
    expected = (n * (n - 1)) // (p * (p - 1))
    assert len(copies) == expected
    return Decomposition(host, host.edges, copies)
