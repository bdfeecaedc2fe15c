"""Desk-scale cover-down loop: nest a vortex of shrinking vertex sets, cover
everything outside the innermost set level by level, and confine the
leftover there.

The probabilistic machinery behind the asymptotic guarantee is replaced by
greedy removal plus pinned first-hit search with retry on one live graph, an
`embeddings.Packing`; per-level statistics show the confinement behaviour.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .divisibility import check_divisibility
from .embeddings import Packing
from .errors import DomainError, InputError
from .graphs import EmbeddedCopy, Graph, norm_edge
from .solver import greedy_decompose

RESAMPLES = 64          # vortex level draws before the best one is kept
RELEASE_BUDGET = 3      # copies a stuck cover-down edge may release


@dataclass
class Vortex:
    sets: list                   # U_0 >= U_1 >= ... >= U_ell (as sorted lists)
    delta: Fraction
    mu: Fraction
    m: int
    surrounded: frozenset = frozenset()

    @property
    def depth(self) -> int:
        return len(self.sets) - 1


def find_vortex(g: Graph, delta, mu, m_target: int,
                w=(), seed: int = 0) -> Vortex:
    """Sample a nested vortex with geometric shrinkage.

    Each level is drawn uniformly (containing the surrounded set) and kept
    if every previous-level vertex retains the target degree share into it;
    after `RESAMPLES` draws the best sample is kept.  The vortex's `delta`
    is the least of the target share and every share achieved.
    """
    delta = Fraction(delta)
    mu = Fraction(mu)
    w = frozenset(w)
    if not (0 < mu < 1):
        raise InputError("shrinkage must lie strictly between 0 and 1")
    if len(w) and len(w) > 1 / mu:
        raise InputError("surrounded set too large for the shrinkage")
    if g.n and Fraction(g.min_degree(), g.n) < delta:
        raise DomainError(
            f"minimum degree share {Fraction(g.min_degree(), g.n)} below {delta}")
    for x in w:
        if not (0 <= x < g.n):
            raise InputError("surrounded vertex out of range")

    rng = random.Random(seed)
    target = delta - mu
    # shrink while the current level still exceeds the target size; the
    # final level lands between mu*m_target and m_target
    sizes = [g.n]
    while sizes[-1] > m_target and int(sizes[-1] * mu) >= 1:
        sizes.append(int(sizes[-1] * mu))
    levels = [list(range(g.n))]
    achieved = []
    for depth in range(1, len(sizes)):
        want = sizes[depth]
        prev = levels[-1]
        if want < len(w):
            raise InputError("surrounded set larger than a vortex level")
        best, best_share = None, None
        for _ in range(RESAMPLES):
            pool = [x for x in prev if x not in w]
            rng.shuffle(pool)
            cand = sorted(list(w) + pool[:want - len(w)])
            cset = set(cand)
            share = min(
                (Fraction(sum(1 for y in g.adj[x] if y in cset), len(cand))
                 for x in prev), default=Fraction(1))
            if best_share is None or share > best_share:
                best, best_share = cand, share
            if share >= target:
                break
        achieved.append(best_share)
        levels.append(best)
    return Vortex(levels, min([target] + achieved), mu, len(levels[-1]), w)


def verify_vortex(g: Graph, v: Vortex) -> tuple[bool, Optional[str]]:
    if not v.sets or sorted(v.sets[0]) != list(range(g.n)):
        return False, "(V1) violated: first level must be every vertex"
    for i in range(1, len(v.sets)):
        want = int(len(v.sets[i - 1]) * v.mu)
        if len(v.sets[i]) != want:
            return False, f"(V2) violated at level {i}"
        if not set(v.sets[i]) <= set(v.sets[i - 1]):
            return False, f"nesting violated at level {i}"
    if len(v.sets[-1]) != v.m or not v.surrounded <= set(v.sets[-1]):
        return False, "(V3) violated"
    for i in range(1, len(v.sets)):
        cset = set(v.sets[i])
        for x in v.sets[i - 1]:
            if sum(1 for y in g.adj[x] if y in cset) < v.delta * len(cset):
                return False, f"(V4) violated at level {i} by vertex {x}"
    return True, None


@dataclass
class CoverDownResult:
    copies: list
    leftover: Graph
    success: bool
    stats: list = field(default_factory=list)


def cover_down(f: Graph, g: Graph, vortex: Vortex,
               seed: int = 0) -> CoverDownResult:
    """Cover every edge outside the innermost vortex level.

    Level by level: a bulk greedy pass eats the outside-induced part, minus
    a per-vertex partner reserve sized to each vertex's cross degree; a
    seeded per-vertex sweep then covers the remaining edges one at a time
    with pinned copies, preferring outside partners for cross edges and
    inward partners for outside edges.  A stuck edge may release one of the
    sweep's earlier copies and retry, `RELEASE_BUDGET` times.  Edges
    touching the next level's interior from inside are never consumed
    early.  Stalls set the failure flag, never silently.  The live edges
    are one `Packing`, the searches two more; a copy flips all three.
    """
    rep = check_divisibility(f, g)
    if not rep.degree_divisible:
        raise DomainError(
            f"host not degree-divisible: residues {rep.degree_residues}")
    ok, why = verify_vortex(g, vortex)
    if not ok:
        raise InputError(f"vortex invalid: {why}")
    rng = random.Random(seed)
    n = g.n
    live = Packing(g.adj, range(n))
    copies = []
    stats = []
    success = True

    for depth in range(1, len(vortex.sets)):
        inner_set = set(vortex.sets[depth])
        next_inner = (set(vortex.sets[depth + 1])
                      if depth + 1 < len(vortex.sets) else set())
        level = {"level": depth, "inner": len(inner_set)}

        # partner reserve: each outside vertex keeps about as many outside
        # edges as it has cross edges, so cross edges can pair up later
        sweep_order = []    # the outside vertices with a live edge
        reserved = set()
        for x in range(n):
            ys = () if x in inner_set else live.neighbours(x)
            if ys:
                sweep_order.append(x)
                partners = [norm_edge(x, y) for y in ys if y not in inner_set]
                cross_deg = len(ys) - len(partners)
                rng.shuffle(partners)
                reserved.update(partners[:cross_deg + 2 * f.n])

        # (a) bulk greedy on the unreserved outside-induced part
        universe = [(u, v) for u, v in live.edges()
                    if u not in inner_set and v not in inner_set
                    and (u, v) not in reserved]
        got = greedy_decompose(f, Graph(n, universe),
                               seed=rng.randrange(1 << 30))
        copies.extend(got.copies)
        for c in got.copies:
            live.flip(c.edge_image())
        level["greedy_copies"] = len(got.copies)

        # (b) per-vertex sweep, one pinned copy at a time with release-retry
        rng.shuffle(sweep_order)
        out_order = [x for x in range(n) if x not in inner_set]
        rng.shuffle(out_order)
        in_order = sorted(inner_set - next_inner) + sorted(next_inner)
        # edges that the next level will need: anything inside the current
        # inner set touching the next interior is left out of the searches
        held = [(inner_set if u in next_inner else next_inner)
                if u in inner_set else () for u in range(n)]
        usable = [[y for y in live.neighbours(u) if y not in held[u]]
                  for u in range(n)]
        prefer_outside = Packing(usable, out_order + in_order)
        prefer_inside = Packing(usable, in_order + out_order)
        packings = (live, prefer_outside, prefer_inside)

        stalls = 0
        for x in sweep_order:
            committed = []      # edge sets of the copies made this sweep
            attempts = {}
            # x's cross edges first; only they prefer outside partners
            ys = live.neighbours(x)
            pending = deque([(x, y) for y in ys if y in inner_set]
                            + [(x, y) for y in ys if y not in inner_set])
            while pending:
                a, b = pending.popleft()
                if not live.live(a, b):
                    continue
                cross = a == x and b in inner_set
                search = prefer_outside if cross else prefer_inside
                img = search.first_through(f, a, b)
                if img is None:
                    key = norm_edge(a, b)
                    tries = attempts.get(key, 0)
                    if tries < RELEASE_BUDGET and committed:
                        # release the sweep's latest copy, which is also
                        # the last of `copies`; retry, requeue its edges
                        es = committed.pop()
                        copies.pop()
                        for p in packings:
                            p.flip(es)
                        attempts[key] = tries + 1
                        pending.appendleft((a, b))
                        pending.extend((v, u) if v == x else (u, v)
                                       for u, v in sorted(es))
                        continue
                    stalls += 1
                    continue
                copies.append(EmbeddedCopy(f, img))
                es = copies[-1].edge_image()
                committed.append(es)
                for p in packings:
                    p.flip(es)
        level["sweep_stalls"] = stalls

        residue = sum(1 for u, v in live.edges()
                      if u not in inner_set or v not in inner_set)
        level["outside_residue"] = residue
        if residue:
            success = False
        stats.append(level)

    # the last level's residue is the leftover outside the final level
    return CoverDownResult(copies, Graph(n, live.edges()), success, stats)
