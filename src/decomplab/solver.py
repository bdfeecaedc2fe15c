"""Exact, fractional and greedy pattern-decomposition engines.

Each solve builds one copy table (`_copy_table`) over the deduplicated
candidate copies: the edges in sorted order, an edge index per vertex, and
one column per copy, the tuple of its image edges' indices.  Every consumer
reads the columns: the exact-cover core, the lattice test and the fractional
LP.  The LP is solved on its quotient by the coarsest equitable partition of
the edge/copy incidence, found by colour refinement, and the lifted answer is
checked on the full system.  Refinement's first round splits the edges by
their degree, one count over the columns; where that leaves one class, as on
every host whose edges each lie in equally many copies, the quotient is
1 x 1, and the lists of copies through each edge are built only for a later
round, a quotient with more cells or a Farkas check.  Candidates are image
tuples straight from the embedding kernel; an `EmbeddedCopy` is built only
for a copy that a result hands out (the chosen columns of an exact or star
cover).  A fractional solution keeps the candidate images themselves,
aligned with its weights.

Both exact questions run on one iterative exact-cover core, `_exact_cover`,
over integer items (edge indices): primary items are covered exactly once,
secondary items at most once, and the search branches on the primary item
with the fewest live columns, the lowest index among ties.
`exact_decompose` makes every host edge primary; `cover_vertex` makes the
star edges at the vertex primary and every other host edge secondary, and
keeps only the copies whose column meets the star.

Divisibility is checked once, before any search: for the whole host, and
for a connected pattern also for each component of the host, since such
a pattern decomposes each component on its own.

Statuses keep the answers apart: `sat` comes with a decomposition that
`verify_decomposition` checks, `unsat_divisibility` with the violated
residues, `unsat_lattice` with a mod-p certificate that
`lattice.verify_lattice_certificate` checks, `unsat_exhausted` after a
complete search, and `indeterminate` when the time budget ran out first.
`exact_decompose` looks for the lattice certificate once, when its search
has visited e(host) nodes without finishing (see `lattice`).
"""

from __future__ import annotations

import random
import time
from collections import Counter
from dataclasses import dataclass
from functools import cache, partial
from itertools import chain
from typing import Optional

from .divisibility import check_divisibility
from .embeddings import Packing, enumerate_embeddings, orbit_representatives
from .errors import InputError
from .graphs import Decomposition, EmbeddedCopy, Graph
from .lattice import LatticeCertificate, lattice_refutation
from .lp import (FEASIBLE, INDETERMINATE, INFEASIBLE, _proves_infeasible,
                 _solves, solve_equalities_box_float, solve_equalities_nonneg)

SAT = "sat"
UNSAT_DIVISIBILITY = "unsat_divisibility"
UNSAT_EXHAUSTED = "unsat_exhausted"
UNSAT_LATTICE = "unsat_lattice"


@dataclass
class SolveResult:
    status: str
    decomposition: Optional[Decomposition] = None
    report: Optional[object] = None       # divisibility report on that status
    nodes: int = 0
    lattice: Optional[LatticeCertificate] = None    # on `unsat_lattice`
    primes_tried: tuple[int, ...] = ()    # moduli the lattice test finished


@dataclass
class FractionalDecomposition:
    """A weight for every candidate copy: `images[k]` is the image tuple of
    copy k, in `candidate_copies` order, and `weights[k]` its weight.

    `copies` builds a fresh list of `EmbeddedCopy`s on every access, for
    callers that want copy objects; nothing in the package reads it.
    """
    pattern: Graph
    images: list
    weights: list

    @property
    def copies(self) -> list[EmbeddedCopy]:
        return [EmbeddedCopy(self.pattern, im) for im in self.images]


@dataclass
class FractionalResult:
    status: str
    solution: Optional[FractionalDecomposition] = None
    farkas: Optional[list] = None         # rational infeasible: y, one per edge


def candidate_copies(pattern: Graph, host: Graph,
                     through_vertex: Optional[int] = None
                     ) -> list[tuple[int, ...]]:
    """The images (tuples of host vertices) of the deduplicated copies in
    `host`, one per image edge set.

    With `through_vertex`, only copies whose image contains that vertex: the
    first pattern vertex of each Aut(F)-orbit is pinned there in turn.  Two
    embeddings with the same edge image differ by an automorphism, so no copy
    comes from two orbits.
    """
    if through_vertex is None:
        pins = [None]
    else:
        vertices = tuple((p,) for p in range(pattern.n))
        pins = [{p: through_vertex}
                for (p,) in orbit_representatives(pattern, vertices)]
    return [img for pin in pins
            for img in enumerate_embeddings(pattern, host, pins=pin,
                                            dedup_by_edges=True)]


def _copy_table(pattern: Graph, images: list, n: int,
                edges: list) -> tuple[list[dict], list[tuple[int, ...]]]:
    """The edge index of `edges` and one column per copy image.

    `at[v][w]` is the index in `edges` of the edge vw; a copy's column is
    the tuple of the indices of its image edges, read off its image over
    the pattern edges.  The table is built column-major: one list per
    pattern edge over all images, zipped into the columns.
    """
    at: list[dict] = [{} for _ in range(n)]
    for i, (u, v) in enumerate(edges):
        at[u][v] = at[v][u] = i
    return at, list(zip(*[[at[im[a]][im[b]] for im in images]
                          for a, b in pattern.edges]))


def _by_item(columns: list, n_items: int) -> list[list[int]]:
    """The indices of the `columns` through each item `0..n_items-1`, in
    column order."""
    by_item: list[list[int]] = [[] for _ in range(n_items)]
    for i, col in enumerate(columns):
        for e in col:
            by_item[e].append(i)
    return by_item


def _exact_cover(columns: list, n_items: int, primary,
                 deadline: Optional[float] = None,
                 refute=None) -> tuple[Optional[list[int]], int, bool]:
    """Choose pairwise disjoint `columns` (tuples of items `0..n_items-1`)
    covering every `primary` item exactly once; any other item is
    secondary, covered at most once.

    Iterative Algorithm X (Knuth, *Dancing Links*, 2000) over integer
    items: `by_item` lists the columns through each item, and a live-column
    count per item is kept up to date as columns are chosen and undone.
    The search branches on the uncovered primary item with the fewest live
    columns, the lowest item first among ties; both sit in one int key,
    count * n_items + item, so the choice does not depend on set order.
    `refute()` is called once, when the search has visited len(primary)
    nodes without finishing; a true answer proves that no cover exists and
    ends the search there.
    The clock (`deadline`, a `time.monotonic()` value) is read every 256
    nodes.  Returns (chosen column indices or None, nodes, deadline hit).
    """
    by_item = _by_item(columns, n_items)
    # live-column count * n_items + item: `min` ranks by count, then item
    key = [len(js) * n_items + e for e, js in enumerate(by_item)]
    live = [True] * len(columns)
    primary = set(primary)
    uncovered = set(primary)

    def choose(i: int) -> list[int]:
        killed = []
        for e in columns[i]:
            uncovered.discard(e)
            for j in by_item[e]:
                if live[j]:
                    live[j] = False
                    killed.append(j)
                    for k in columns[j]:
                        key[k] -= n_items
        return killed

    def undo(i: int, killed: list[int]) -> None:
        for j in killed:
            live[j] = True
            for k in columns[j]:
                key[k] += n_items
        uncovered.update(e for e in columns[i] if e in primary)

    # one entry per chosen column: [live columns of the branching item,
    # position of the one chosen, the columns that choice killed]
    stack: list = []
    nodes = 0
    while True:
        nodes += 1
        if (deadline is not None and nodes % 256 == 0
                and time.monotonic() > deadline):
            return None, nodes, True
        if not uncovered:
            return [choices[k] for choices, k, _ in stack], nodes, False
        if refute is not None and nodes == len(primary) and refute():
            return None, nodes, False
        e0 = min(uncovered, key=key.__getitem__)
        if key[e0] >= n_items:
            stack.append([[j for j in by_item[e0] if live[j]], -1, None])
        while stack:
            level = stack[-1]
            choices, k, killed = level
            if killed is not None:
                undo(choices[k], killed)
            k += 1
            if k < len(choices):
                level[1], level[2] = k, choose(choices[k])
                break
            stack.pop()
        else:
            return None, nodes, False


def _deadline(timeout: Optional[float]) -> Optional[float]:
    return None if timeout is None else time.monotonic() + timeout


def exact_decompose(pattern: Graph, host: Graph, *,
                    timeout: Optional[float] = None) -> SolveResult:
    """Partition E(host) into copies of `pattern`, or prove impossibility.

    Divisibility obstructions, of the whole host or (connected pattern)
    of one of its components, are reported before any search; a search
    still running after e(host) nodes asks `lattice_refutation` for a
    mod-p certificate once (`unsat_lattice`), unless the deadline passed.
    """
    if pattern.e < 2:
        raise InputError("pattern needs at least two edges")
    report = check_divisibility(pattern, host)
    if not report.divisible:
        return SolveResult(UNSAT_DIVISIBILITY, report=report)
    if pattern.is_connected():
        # each component of the host is decomposed on its own
        for comp in host.components():
            if (sum(map(host.degree, comp)) // 2) % pattern.e:
                piece = Graph(host.n, host.induced_edges(comp))
                return SolveResult(UNSAT_DIVISIBILITY,
                                   report=check_divisibility(pattern, piece))

    deadline = _deadline(timeout)
    cands = candidate_copies(pattern, host)
    edges = sorted(host.edges)
    _, columns = _copy_table(pattern, cands, host.n, edges)
    cert, tried = None, ()

    def refute() -> bool:
        nonlocal cert, tried
        if deadline is not None and time.monotonic() > deadline:
            return False
        cert, tried = lattice_refutation(pattern, columns, len(edges),
                                         deadline)
        return cert is not None

    chosen, nodes, hit = _exact_cover(columns, len(edges), range(len(edges)),
                                      deadline, refute=refute)
    if chosen is not None:
        copies = [EmbeddedCopy(pattern, cands[i]) for i in chosen]
        dec = Decomposition(host, host.edges, copies)
        return SolveResult(SAT, dec, nodes=nodes, primes_tried=tried)
    if cert is not None:
        return SolveResult(UNSAT_LATTICE, nodes=nodes, lattice=cert,
                           primes_tried=tried)
    return SolveResult(INDETERMINATE if hit else UNSAT_EXHAUSTED, nodes=nodes,
                       primes_tried=tried)


def verify_decomposition(dec: Decomposition) -> tuple[bool, Optional[str]]:
    """Certificate check: common pattern, valid embeddings, exact partition.

    One int64 array pass (`_valid_in_bulk`) accepts a valid certificate
    whose copies all share one pattern.  Only when that pass does
    not accept is the certificate walked copy by copy (`_verify_by_walk`),
    to name the first violation; so the verdict and its message are the
    walk's, and a valid certificate is never walked.
    """
    if _valid_in_bulk(dec):
        return True, None
    return _verify_by_walk(dec)


def _same_graphs(first: Graph, graphs) -> bool:
    """Whether every graph is `first`, each distinct object compared by
    value once."""
    distinct = dict(zip(map(id, graphs), graphs))
    return all(g is first or g == first for g in distinct.values())


def _valid_in_bulk(dec: Decomposition) -> bool:
    """Whether `dec` is a valid certificate, checked in one array pass;
    False also where a copy has another pattern, or where a vertex is not
    an int.

    With the target inside the host, it is the copies' image edges that
    must be the target's edges, each once: the sorted codes u*n + v of the
    copies' edges, lower end first, must equal the sorted codes of the
    target's.  The codes of distinct edges differ, as each image is checked
    to be in range with distinct vertices first.
    """
    import numpy as np
    copies, host, target = dec.copies, dec.host, dec.target_edges
    if not copies:
        return not target
    pattern = copies[0].pattern
    if not _same_graphs(pattern, [c.pattern for c in copies]):
        return False
    if target is not host.edges and not target <= host.edges:
        return False
    pn, hn = pattern.n, host.n
    images = [c.image for c in copies]
    if set(map(len, images)) != {pn}:
        return False
    flat = list(chain.from_iterable(images))
    if not set(map(type, flat)) <= {int}:   # bool and float ids are walked
        return False
    try:
        im = np.array(flat)
        want = np.array([u * hn + v for u, v in target])
    except (TypeError, ValueError):     # the walk names the bad vertex
        return False
    if im.dtype.kind != "i" or want.dtype.kind != "i" \
            or len(want) != len(copies) * pattern.e:
        return False
    im = im.astype(np.int64, copy=False).reshape(len(copies), pn)
    if im.size and (im.min() < 0 or im.max() >= hn):
        return False
    if (np.diff(np.sort(im, axis=1), axis=1) == 0).any():
        return False
    a, b = np.array(sorted(pattern.edges), dtype=np.int64).reshape(-1, 2).T
    lo, hi = np.minimum(im[:, a], im[:, b]), np.maximum(im[:, a], im[:, b])
    codes = np.sort((lo * hn + hi).ravel())
    return bool((codes == np.sort(want.astype(np.int64, copy=False))).all())


def _verify_by_walk(dec: Decomposition) -> tuple[bool, Optional[str]]:
    """`verify_decomposition`'s verdict, copy by copy: the first violation
    by name, or (True, None).

    Linear in the total certificate size: a copy's pattern is compared by
    identity first, and each distinct pattern object by value only once.
    Each copy's image is checked (length, distinct int vertices in range),
    then its image edges as one list against the host, and then edge by
    edge against the edges covered so far and the target.
    """
    target = dec.target_edges
    if not dec.copies:
        if target:
            return False, f"uncovered edge {min(target)}"
        return True, None
    pattern = dec.copies[0].pattern
    pe, pn = tuple(pattern.edges), pattern.n
    host_edges, hn = dec.host.edges, dec.host.n
    covered = set()
    same_patterns = {id(pattern)}
    for k, c in enumerate(dec.copies):
        if id(c.pattern) not in same_patterns:
            if c.pattern != pattern:
                return False, f"copy {k} has a different pattern"
            same_patterns.add(id(c.pattern))
        im = c.image
        if len(im) != pn or len(set(im)) != pn or any(
                type(v) is not int for v in im) or (
                pn and (min(im) < 0 or max(im) >= hn)):
            return False, f"copy {k} is not a valid embedding"
        es = [(im[u], im[v]) if im[u] < im[v] else (im[v], im[u])
              for u, v in pe]
        if not host_edges.issuperset(es):
            return False, f"copy {k} is not a valid embedding"
        for e in c.edge_image():
            if e in covered:
                return False, f"edge {e} covered twice"
            if e not in target:
                return False, f"edge {e} outside the target set"
            covered.add(e)
    if len(covered) != len(target):
        return False, f"uncovered edge {min(target - covered)}"
    return True, None


def _refine(classes: list[int], members: list,
            member_classes: list[int]) -> tuple[list[int], int]:
    """One colour-refinement step: each item's class from its old class and
    the sorted classes of its `members`, numbered by first occurrence; and
    the number of classes."""
    ids: dict = {}
    new = [ids.setdefault((c, tuple(sorted(map(member_classes.__getitem__,
                                                js)))), len(ids))
           for c, js in zip(classes, members)]
    return new, len(ids)


def _equitable_partition(columns: list, degree: list[int], by_edge
                         ) -> tuple[list[int], list[int]]:
    """The coarsest equitable partition of the edge/copy incidence, by
    colour refinement from one edge class and one copy class: (the class of
    each edge, the class of each copy), numbered by first occurrence.

    Equitable: the edges of a class each lie in the same number of copies of
    each class, and the copies of a class each have the same number of edges
    in each class.  The first edge round splits the edges by `degree`, the
    number of copies through each; `by_edge()`, the copies through each
    edge, is called only for a later edge round.  A step that splits no
    class leaves the partition stable.  Once the edges are discrete so are
    the copies, whose edge sets differ.
    """
    n_edges, n_copies = len(degree), len(columns)
    ids: dict = {}
    edge_class = [ids.setdefault(d, len(ids)) for d in degree]
    count, copy_class = len(ids), [0] * n_copies
    edge_count, copy_count = min(n_edges, 1), min(n_copies, 1)
    while True:
        if count == n_edges:
            return edge_class, list(range(n_copies))
        if count == edge_count:
            return edge_class, copy_class
        edge_count = count
        copy_class, count = _refine(copy_class, columns, edge_class)
        if count == copy_count:
            return edge_class, copy_class
        copy_count = count
        edge_class, count = _refine(edge_class, by_edge(), copy_class)


def _quotient(edge_class: list[int], copy_class: list[int], by_edge: list):
    """Q[R][C], the number of class-C copies through one edge of class R, as
    an unsigned-int array with one row per edge class."""
    import numpy as np
    n_cols = max(copy_class, default=-1) + 1
    first = {}
    for e, r in enumerate(edge_class):
        first.setdefault(r, e)
    cells, counts = np.unique(np.array(
        [r * n_cols + copy_class[c] for r, e in first.items()
         for c in by_edge[e]], dtype=np.int64), return_counts=True)
    q = np.zeros((len(first), n_cols),
                 dtype=np.min_scalar_type(counts.max(initial=0)))
    q.flat[cells] = counts
    return q


def fractional_decompose(pattern: Graph, host: Graph, mode: str = "rational",
                         tolerance: float = 1e-9) -> FractionalResult:
    """Solve the one-variable-per-copy, one-equation-per-edge feasibility LP.

    The LP is solved on its quotient by the coarsest equitable partition of
    the edge/copy incidence (Grohe, Kersting, Mladenov and Selman,
    "Dimension reduction via colour refinement", ESA 2014): one row per edge
    class and one column per copy class, and on a host with no symmetry the
    full LP.  It has a solution iff the full LP has: a solution z lifts to
    x_c = z_C, and averaging a solution over each class gives one of the
    quotient's.  A Farkas vector lifts to y_e = y_R / |R|.  The lifted
    answer is checked on the full system before it is returned, and one
    that fails gives `indeterminate`.

    Refinement's first edge round reads the edge degrees, the number of
    copies through each edge, off one count over the copy table.  Where
    every edge has the same degree d, as on any edge-transitive host but
    also on hosts that are not, that one class is already equitable, since
    every copy has all its e(F) edges in it: the quotient is [[d]], and the
    lifted x_c = z is checked on each edge's row as degree·z, so the lists
    of copies through each edge are never built.  A feasible one-column
    quotient is answered by one division with no HiGHS call.  Otherwise
    rational mode checks HiGHS's dual-simplex vertex, and float mode tries
    HiGHS's interior point first and falls back to that vertex (see `lp`).

    Rational mode answers with an exactly checked certificate: weights, or
    a Farkas vector in `farkas` (one `Fraction` per edge of
    `sorted(host.edges)`) with `infeasible`; else `indeterminate`.  Float
    mode's weights meet every edge within `tolerance`; its `infeasible` is
    HiGHS's claim, not a proof.
    """
    if pattern.e < 1:
        raise InputError("pattern needs at least one edge")
    if mode not in ("rational", "float"):
        raise InputError(f"unknown mode {mode!r}")
    cands = candidate_copies(pattern, host)
    edges = sorted(host.edges)
    _, columns = _copy_table(pattern, cands, host.n, edges)
    degree = list(map(Counter(chain.from_iterable(columns)).__getitem__,
                      range(len(edges))))
    by_edge = cache(partial(_by_item, columns, len(edges)))
    edge_class, copy_class = _equitable_partition(columns, degree, by_edge)
    # one edge class: every copy has e(F) edges of it, so it is equitable
    one_class = bool(columns) and not any(edge_class)
    rows = ([[degree[0]]] if one_class
            else list(_quotient(edge_class, copy_class, by_edge())))
    if mode == "float":
        status, z = solve_equalities_box_float(rows, [1.0] * len(rows),
                                               tolerance)
        if status != FEASIBLE:
            return FractionalResult(status)
        x = [z[k] for k in copy_class]
        # edge e's load; at x_c = z on one edge class it reads degree[e]·z
        loads = ((d * z[0] for d in degree) if one_class
                 else (sum(map(x.__getitem__, cs)) for cs in by_edge()))
        if not all(abs(t - 1) <= tolerance for t in loads):
            return FractionalResult(INDETERMINATE)
    else:
        status, v = solve_equalities_nonneg(rows, [1] * len(rows))
        if status == INDETERMINATE:
            return FractionalResult(status)
        ones = [1] * len(edges)
        if status == INFEASIBLE:
            size = Counter(edge_class)
            y = [v[r] / size[r] for r in edge_class]
            entries = [[(c, 1) for c in cs] for cs in by_edge()]
            if _proves_infeasible(entries, len(cands), ones, y):
                return FractionalResult(INFEASIBLE, farkas=y)
            return FractionalResult(INDETERMINATE)
        x = [v[k] for k in copy_class]
        # edge e's row of the full system; at x_c = z on one edge class it
        # reads degree[e]·z
        if one_class:
            lifted = _solves([[(0, d)] for d in degree], ones, v)
        else:
            lifted = _solves([[(c, 1) for c in cs] for cs in by_edge()],
                             ones, x)
        if not lifted:
            return FractionalResult(INDETERMINATE)
    return FractionalResult(FEASIBLE,
                            FractionalDecomposition(pattern, cands, x))


@dataclass
class GreedyResult:
    copies: list
    leftover: Graph

    def as_decomposition(self, host: Graph) -> Decomposition:
        # the copies cover exactly the host edges greedy did not leave over
        return Decomposition(host, host.edges - self.leftover.edges,
                             list(self.copies))


def greedy_decompose(pattern: Graph, host: Graph,
                     seed: int = 0) -> GreedyResult:
    """Maximal greedy collection: repeatedly remove a copy until none is left.

    An edge found inextensible stays inextensible as the graph shrinks, so
    each edge is processed once, in a seeded shuffle of the sorted edges.
    """
    if pattern.e < 1:
        raise InputError("pattern needs at least one edge")
    rng = random.Random(seed)
    order = list(range(host.n))
    rng.shuffle(order)
    packing = Packing(host.adj, order)
    queue = sorted(host.edges)
    rng.shuffle(queue)
    copies = []
    for u, v in queue:
        img = packing.live(u, v) and packing.first_through(pattern, u, v)
        if img:
            copies.append(EmbeddedCopy(pattern, img))
            packing.flip([(img[a], img[b]) for a, b in pattern.edges])
    return GreedyResult(copies, Graph(host.n, packing.edges()))


def cover_vertex(pattern: Graph, host: Graph, x: int,
                 timeout: Optional[float] = None) -> SolveResult:
    """Edge-disjoint copies covering every edge at `x` (star cover).

    Copies are globally edge-disjoint, not just on the star: the star edges
    are the primary items and every other host edge a secondary one.
    Divisibility of the star degree by the pattern degree gcd is the cheap
    gate; a refusal carries the host's divisibility report.
    """
    if pattern.e < 1:
        raise InputError("pattern needs at least one edge")
    if not (0 <= x < host.n):
        raise InputError("vertex out of range")
    report = check_divisibility(pattern, host)
    if x in report.degree_residues:
        return SolveResult(UNSAT_DIVISIBILITY, report=report)
    edges = sorted(host.edges)
    cands = candidate_copies(pattern, host, through_vertex=x)
    at, columns = _copy_table(pattern, cands, host.n, edges)
    star_items = frozenset(at[x].values())
    keep = [k for k, col in enumerate(columns)
            if not star_items.isdisjoint(col)]
    cands = [cands[k] for k in keep]
    columns = [columns[k] for k in keep]
    chosen, nodes, hit = _exact_cover(columns, len(edges), star_items,
                                      _deadline(timeout))
    if chosen is not None:
        copies = [EmbeddedCopy(pattern, cands[i]) for i in chosen]
        covered = frozenset(edges[e] for i in chosen for e in columns[i])
        return SolveResult(SAT, Decomposition(host, covered, copies),
                           nodes=nodes)
    return SolveResult(INDETERMINATE if hit else UNSAT_EXHAUSTED, nodes=nodes)
