"""Hamilton cycles in dense graphs via rotation-extension with restarts.

Deterministic given the seed.  The degree precondition is Dirac's; under it
the search must succeed, so exhausting the restart budget is treated as a
defect rather than a recoverable condition.
"""

from __future__ import annotations

import random

from .errors import DegreeError, DecompLabError
from .graphs import Graph

RESTARTS = 64


def hamilton_cycle(host: Graph, seed: int = 0) -> list[int]:
    """Return a Hamilton cycle as a vertex sequence (closing edge implicit).

    Requires |host| >= 3 and min degree >= |host|/2.
    """
    n = host.n
    if n < 3:
        raise DegreeError("Hamilton cycles need at least 3 vertices")
    if 2 * host.min_degree() < n:
        raise DegreeError(
            f"minimum degree {host.min_degree()} below Dirac bound {n}/2")
    rng = random.Random(seed)
    adj = host.adj

    for attempt in range(RESTARTS):
        start = rng.randrange(n)
        path = [start]
        on_path = [False] * n
        pos = [-1] * n
        on_path[start] = True
        pos[start] = 0
        stall = 0
        max_stall = 4 * n * n + 64
        while stall < max_stall:
            end = path[-1]
            ext = [y for y in adj[end] if not on_path[y]]
            if ext:
                y = ext[rng.randrange(len(ext))] if len(ext) > 1 else ext[0]
                pos[y] = len(path)
                path.append(y)
                on_path[y] = True
                stall = 0
                continue
            if len(path) == n and path[0] in adj[end]:
                return path
            # rotate: pick a neighbour y of the endpoint lying on the path and
            # reverse the tail after y, making y's successor the new endpoint
            nbrs = [y for y in adj[end] if pos[y] < len(path) - 2]
            if not nbrs:
                break
            y = nbrs[rng.randrange(len(nbrs))]
            i = pos[y]
            tail = path[i + 1:][::-1]
            path[i + 1:] = tail
            for j, v in enumerate(tail):
                pos[v] = i + 1 + j
            stall += 1
        # restart with a new seed-derived start vertex
    raise DecompLabError(
        "rotation-extension failed under the Dirac condition; this is a defect")


def edge_disjoint_hamilton_cycles(host: Graph, vs, count: int,
                                  seed: int = 0) -> list[tuple[int, int]]:
    """The edges, in host ids, of `count` pairwise edge-disjoint Hamilton
    cycles of host[vs], greedily removed.

    Each removal drops every degree by 2, so Dirac holds at every step
    exactly when the min degree is at least |vs|/2 + 2(count-1); below
    that, DegreeError is raised before any search.
    """
    if count == 0:
        return []
    order = sorted(set(vs))
    g = host.induced(order)
    need = len(order) / 2 + 2 * (count - 1)
    if g.min_degree() < need:
        raise DegreeError(
            f"clique part min degree {g.min_degree()} below "
            f"{need:.1f} needed for {count} Hamilton cycles")
    cycles = []
    for i in range(count):
        if cycles:
            g = g.without_edges(cycles[-1])
        cyc = hamilton_cycle(g, seed=seed + i)
        cycles.append([(cyc[j - 1], cyc[j]) for j in range(len(cyc))])
    return [(order[a], order[b]) for es in cycles for a, b in es]
