"""Lattice (mod-p) certificates that no F-decomposition exists.

Let A be the 0/1 incidence matrix of the candidate copies of F (one column
per copy, one row per edge of `sorted(host.edges)`).  A decomposition is an
x in Z>=0^copies with A x = 1, so it needs the all-ones vector in the Z-span
of A's columns.  By the integer Farkas lemma (Schrijver, *Theory of Linear
and Integer Programming*, Cor. 4.1a) 1 lies outside that span exactly when
some rational y has yᵀA integral and yᵀ1 not; the mod-p case of it is a
y in GF(p)^E with yᵀA ≡ 0 and yᵀ1 ≢ 0 (mod p).  Such a y proves that no
decomposition exists: summing yᵀ over the copies of one would give yᵀ1 ≡ 0.
The paper's divisibility conditions and its extremal tau / theta
obstructions are certificates of this kind.

The test is sound and not complete: a ℤ-span obstruction that shows only
modulo a prime power or modulo a prime not tried (Hermite or Smith normal
forms would find those) goes unseen.  The primes tried are p = 2, then
every prime dividing e(F) or the degree gcd of F (`lattice_primes`).
The elimination holds its GF(2) vectors as int bitsets, one bit per edge,
so that a row operation is one XOR; at odd p it holds sparse dicts.

`exact_decompose` runs `lattice_refutation` once, when its search has
visited e(host) nodes without finishing: a search that never backtracks
needs about e(G)/e(F) + 1 nodes, so one that finds a decomposition
without much backtracking never pays for the elimination.
`verify_lattice_certificate` is the independent check: it recomputes the
copies by plain labelled enumeration and shares no elimination code.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import chain
from math import isqrt
from typing import Optional

from .embeddings import enumerate_embeddings
from .graphs import Graph, degree_gcd_of, norm_edge


@dataclass(frozen=True)
class LatticeCertificate:
    modulus: int
    y: tuple[int, ...]        # one residue per edge of sorted(host.edges)


def _prime_factors(n: int) -> set[int]:
    out, d = set(), 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


def lattice_primes(pattern: Graph) -> tuple[int, ...]:
    """2, then the other primes dividing e(F) or the degree gcd, ascending."""
    rest = _prime_factors(pattern.e * degree_gcd_of(pattern)) - {2}
    return (2,) + tuple(sorted(rest))


def span_certificate(columns, rows: int, p: int,
                     deadline: Optional[float] = None) -> Optional[list[int]]:
    """A y in GF(p)^rows with yᵀc ≡ 0 for every column c and Σy ≡ 1; None
    when the all-ones vector lies in the columns' span mod p, or when the
    deadline (a `time.monotonic()` value, read every 256 columns) passed.

    Each column lists the rows where it holds a 1.  Gauss-Jordan over GF(p),
    the columns in their order: `basis` maps each pivot row to a vector with
    1 there and 0 at every other pivot, a new vector's pivot is its lowest
    nonzero row, and `rest` is the all-ones vector reduced by the basis, so
    the elimination stops once `rest` is 0.  Otherwise y is read off the
    basis: 1/rest[s] at the lowest row s with rest[s] ≢ 0, -b[s]/rest[s] at
    the pivot of each basis vector b, 0 at the other rows.

    At p = 2 the vectors are int bitsets (bit j is row j) and a row
    operation is one XOR (`_span_certificate_gf2`); at odd p they are
    sparse dicts from row to residue (`_span_certificate_dicts`).  Both
    give the same y at p = 2.
    """
    if p == 2:
        return _span_certificate_gf2(columns, rows, deadline)
    return _span_certificate_dicts(columns, rows, p, deadline)


def _span_certificate_dicts(columns, rows: int, p: int,
                            deadline: Optional[float]) -> Optional[list[int]]:
    """`span_certificate` on sparse dict vectors, any prime p."""
    basis: dict[int, dict[int, int]] = {}
    rest = dict.fromkeys(range(rows), 1)
    for k, col in enumerate(columns):
        if (deadline is not None and k % 256 == 255
                and time.monotonic() > deadline):
            return None
        v: dict[int, int] = {}
        for i in col:
            b = basis.get(i)
            if b is None:
                v[i] = v.get(i, 0) + 1
            else:
                for j, a in b.items():
                    if j != i:
                        v[j] = v.get(j, 0) - a
        v = {j: a % p for j, a in v.items() if a % p}
        if not v:
            continue
        q = min(v)
        inv = pow(v[q], -1, p)
        v = {j: a * inv % p for j, a in v.items()}
        for b in chain(basis.values(), (rest,)):
            c = b.get(q)
            if c:       # b -= c * v
                for j, a in v.items():
                    w = (b.get(j, 0) - c * a) % p
                    if w:
                        b[j] = w
                    else:
                        del b[j]
        basis[q] = v
        if not rest:
            return None
    s = min(rest)
    inv = pow(rest[s], -1, p)
    y = [0] * rows
    y[s] = inv
    for q, b in basis.items():
        y[q] = -b.get(s, 0) * inv % p
    return y


def _span_certificate_gf2(columns, rows: int,
                          deadline: Optional[float]) -> Optional[list[int]]:
    """`span_certificate` at p = 2 on int bitsets.

    Reducing a column by the basis replaces each of its pivot rows i by the
    basis vector there minus its own pivot bit; eliminating a new pivot q
    from a vector that holds bit q XORs the new vector into it.
    """
    basis: dict[int, int] = {}
    rest = (1 << rows) - 1
    for k, col in enumerate(columns):
        if (deadline is not None and k % 256 == 255
                and time.monotonic() > deadline):
            return None
        v = 0
        for i in col:
            bit = 1 << i
            b = basis.get(i)
            v ^= bit if b is None else b ^ bit
        if not v:
            continue
        q = (v & -v).bit_length() - 1
        for j, b in basis.items():
            if b >> q & 1:
                basis[j] = b ^ v
        basis[q] = v
        if rest >> q & 1:
            rest ^= v
            if not rest:
                return None
    s = (rest & -rest).bit_length() - 1
    y = [0] * rows
    y[s] = 1
    for q, b in basis.items():
        y[q] = b >> s & 1
    return y


def lattice_refutation(pattern: Graph, columns, rows: int,
                       deadline: Optional[float] = None
                       ) -> tuple[Optional[LatticeCertificate], tuple[int, ...]]:
    """The first certificate found over `lattice_primes(pattern)`, or None;
    and the primes whose test ran to the end.  `columns` is a list (it is
    read once per prime) of the copies' edge indices in
    `sorted(host.edges)`."""
    tried = []
    for p in lattice_primes(pattern):
        y = span_certificate(columns, rows, p, deadline)
        if y is not None:
            return LatticeCertificate(p, tuple(y)), (*tried, p)
        if deadline is not None and time.monotonic() > deadline:
            break       # the test may have given up before the end
        tried.append(p)
    return None, tuple(tried)


def verify_lattice_certificate(pattern: Graph, host: Graph,
                               cert: LatticeCertificate
                               ) -> tuple[bool, Optional[str]]:
    """Check that `cert` proves `host` has no decomposition into copies of
    `pattern`: its modulus p is prime, it has one integer per edge of
    `sorted(host.edges)`, they sum to a nonzero residue, and they sum to 0
    mod p over the edges of every labelled embedding of `pattern` into
    `host`.  The first violation is named."""
    p, y = cert.modulus, cert.y
    if not isinstance(p, int) or p < 2 or any(
            p % d == 0 for d in range(2, isqrt(p) + 1)):
        return False, f"modulus {p} is not prime"
    edges = sorted(host.edges)
    if len(y) != len(edges):
        return False, f"{len(y)} entries for {len(edges)} host edges"
    if not all(isinstance(t, int) for t in y):
        return False, "entries must be integers"
    if sum(y) % p == 0:
        return False, f"the entries sum to 0 mod {p}"
    weight = dict(zip(edges, y))
    for im in enumerate_embeddings(pattern, host):
        total = sum(weight[norm_edge(im[u], im[v])]
                    for u, v in pattern.edges) % p
        if total:
            return False, f"copy {im} sums to {total} mod {p}"
    return True, None
