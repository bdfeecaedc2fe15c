"""The benchmark's workloads: fixed job lists over seeded plain data.

Setup turns the seed into plain data (vertex counts, edge lists, edge-list
text, relabelling and solver seeds).  A job's `run` builds its own decomplab
values from that data inside the timed region, so no job reuses an adjacency
cache filled by an earlier job or pass, and calls the program only through
module attributes (`dl.solver.exact_decompose`), which is where the traced
run installs its spans.  A job's `check` is untimed: it pulls plain data out
of the result and judges it with `checks`, never with a decomplab verifier
alone.

Relabelling a host never changes whether it decomposes, so every job has a
known answer that holds for every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

import checks
from checks import ANSWERED, FAILED, UNANSWERED

# Pattern graphs as plain vertex counts and edge lists; the program's
# pattern is built from the same data, so images index the same vertices.
K3 = (3, ((0, 1), (0, 2), (1, 2)))
K4 = (4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
C4 = (4, ((0, 1), (1, 2), (2, 3), (0, 3)))
K33 = (6, tuple((i, 3 + j) for i in range(3) for j in range(3)))

# Per-job time budget of the C4 extremal instance: provably UNSAT, but the
# exact search does not refute it within this budget today.
EXACT_BUDGET_S = 2.0
FLOAT_TOLERANCE = 1e-9


@dataclass
class Outcome:
    status: str                     # ANSWERED, UNANSWERED or FAILED
    detail: str
    counts: dict = field(default_factory=dict)


@dataclass
class Job:
    name: str
    run: Callable[[Any], Any]       # dl namespace -> raw program result
    check: Callable[[Any], Outcome]


def complete_edges(n: int) -> list:
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def bipartite_edges(s: int, t: int) -> list:
    return [(i, s + j) for i in range(s) for j in range(t)]


def relabelled(n: int, edges, rng: random.Random) -> list:
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[u], perm[v]) for u, v in edges]


def _pattern(dl, spec):
    n, edges = spec
    return dl.graphs.Graph(n, edges)


def _images(copies) -> list:
    return [tuple(c.image) for c in copies]


# -- exact ---------------------------------------------------------------------


def _round_trip(dl, dec):
    """Certificate JSON round trip plus the program's own verifier."""
    back = dl.graphio.parse_certificate(dl.graphio.serialize_certificate(dec))
    return back, dl.solver.verify_decomposition(back)[0]


def _check_certificate(pattern, host_edges: set, back, verified) -> str | None:
    pn, pedges = pattern
    if checks.edge_set(back.host.edges) != host_edges:
        return "certificate host differs from the input host"
    if checks.edge_set(back.target_edges) != host_edges:
        return "certificate target is not the whole host"
    why = checks.check_partition(pn, pedges, _images(back.copies), host_edges)
    if why:
        return why
    if not verified:
        return "verify_decomposition rejected a valid certificate"
    return None


def classify_exact_sat(pattern, host_edges: set, result) -> Outcome:
    """Known-SAT instance: SAT with a checked certificate answers it."""
    res, back, verified = result
    counts = {"search_nodes": res.nodes if res.status != "indeterminate" else 0}
    if res.status == "indeterminate":
        return Outcome(UNANSWERED, "indeterminate", counts)
    if res.status != "sat":
        return Outcome(FAILED, f"{res.status} on a SAT instance", counts)
    why = _check_certificate(pattern, host_edges, back, verified)
    if why:
        return Outcome(FAILED, why, counts)
    return Outcome(ANSWERED, f"sat, {len(back.copies)} copies checked", counts)


def _exact_sat_job(name, pattern, n, edges=None) -> Job:
    """exact_decompose on a known-SAT host: K_n when `edges` is None."""
    def run(dl):
        f = _pattern(dl, pattern)
        g = (dl.graphs.complete_graph(n) if edges is None
             else dl.graphs.Graph(n, edges))
        res = dl.solver.exact_decompose(f, g)
        back, verified = (_round_trip(dl, res.decomposition)
                          if res.status == "sat" else (None, False))
        return res, back, verified

    def check(result):
        host = checks.edge_set(complete_edges(n) if edges is None else edges)
        return classify_exact_sat(pattern, host, result)

    return Job(name, run, check)


def classify_exact_unsat(pattern, host_edges: set, cert, obstruction_ok,
                         res) -> Outcome:
    """Known-UNSAT extremal instance: an UNSAT status answers it only when
    obstruction_check accepts the instance and the recount agrees."""
    counts = {"search_nodes": res.nodes if res.status != "indeterminate" else 0}
    why = checks.check_region_count(host_edges, cert.region, cert.modulus,
                                    cert.residue)
    if why or not obstruction_ok:
        return Outcome(FAILED, why or "obstruction_check rejected the family",
                       counts)
    if res.status == "indeterminate":
        return Outcome(UNANSWERED, "indeterminate within the budget", counts)
    if not res.status.startswith("unsat"):
        return Outcome(FAILED, f"{res.status} on a proven UNSAT instance",
                       counts)
    return Outcome(ANSWERED, f"{res.status}, obstruction checked", counts)


def _extremal_job(name, pattern, m, relabel_seed, timeout) -> Job:
    """generate_extremal tau_23, relabelled, obstruction_check, then
    exact_decompose."""
    def run(dl):
        f = _pattern(dl, pattern)
        inst = dl.extremal.generate_extremal(f, "tau_23", m)
        n = inst.graph.n
        perm = list(range(n))
        random.Random(relabel_seed).shuffle(perm)
        g = dl.graphs.Graph(n, [(perm[u], perm[v]) for u, v in inst.graph.edges])
        c = inst.certificate
        cert = dl.extremal.ObstructionCertificate(
            c.kind, {perm[v] for v in c.region}, c.modulus, c.residue)
        ok = dl.extremal.obstruction_check(f, g, cert)
        return g, cert, ok, dl.solver.exact_decompose(f, g, timeout=timeout)

    def check(result):
        g, cert, ok, res = result
        return classify_exact_unsat(pattern, checks.edge_set(g.edges), cert,
                                    ok, res)

    return Job(name, run, check)


def exact_jobs(seed: int) -> list:
    rng = random.Random(seed)
    jobs = [_exact_sat_job(f"K3->K{n}", K3, n) for n in (27, 33, 39, 45)]
    jobs.append(_exact_sat_job("C4->K12,12", C4, 24,
                               relabelled(24, bipartite_edges(12, 12), rng)))
    jobs.append(_exact_sat_job("K4->K16", K4, 16))
    jobs.append(_extremal_job("K3,3->tau_23(K3,3,1)", K33, 1,
                              rng.randrange(1 << 30), None))
    jobs.append(_extremal_job("C4->tau_23(C4,2) budgeted", C4, 2,
                              rng.randrange(1 << 30), EXACT_BUDGET_S))
    return jobs


# -- fractional ----------------------------------------------------------------


def classify_fractional(pattern, host_edges: set, mode: str, result) -> Outcome:
    """Every host here is edge-transitive, so uniform weights exist and the
    known answer is feasible."""
    if isinstance(result, str):
        return Outcome(UNANSWERED, result)
    if result.status != "feasible":
        return Outcome(FAILED, f"{result.status} on a feasible instance")
    pn, pedges = pattern
    sol = result.solution
    images = _images(sol.copies)
    if mode == "rational":
        why = checks.check_rational_weights(pn, pedges, images, sol.weights,
                                            host_edges)
    else:
        why = checks.check_float_weights(pn, pedges, images, sol.weights,
                                         host_edges, FLOAT_TOLERANCE)
    if why:
        return Outcome(FAILED, why)
    return Outcome(ANSWERED, f"{mode} weights on {len(images)} copies checked")


def _fractional_job(name, pattern, n, mode, edges=None) -> Job:
    def run(dl):
        f = _pattern(dl, pattern)
        g = (dl.graphs.complete_graph(n) if edges is None
             else dl.graphs.Graph(n, edges))
        try:
            return dl.solver.fractional_decompose(
                f, g, mode=mode, tolerance=FLOAT_TOLERANCE)
        except dl.errors.SizeGuardError as exc:
            return f"refused: {exc}"

    def check(result):
        host = checks.edge_set(complete_edges(n) if edges is None else edges)
        return classify_fractional(pattern, host, mode, result)

    return Job(name, run, check)


def fractional_jobs(seed: int) -> list:
    rng = random.Random(seed)
    return [
        _fractional_job("rational K3->K7", K3, 7, "rational"),
        _fractional_job("rational K3->K9", K3, 9, "rational"),
        _fractional_job("rational C4->K5,5", C4, 10, "rational",
                        relabelled(10, bipartite_edges(5, 5), rng)),
        _fractional_job("float K3->K19", K3, 19, "float"),
        _fractional_job("float K3->K25", K3, 25, "float"),
    ]


# -- large-host ----------------------------------------------------------------


def _parse_job(n: int, edges: list) -> Job:
    text = f"{n}\n" + "".join(f"{u} {v}\n" for u, v in edges)

    def run(dl):
        return dl.graphio.parse_edge_list(text)

    def check(g):
        if g.n != n or checks.edge_set(g.edges) != checks.edge_set(edges):
            return Outcome(FAILED, "parsed graph differs from the text")
        return Outcome(ANSWERED, f"{g.e} edges parsed")

    return Job(f"parse K{n}", run, check)


def _greedy_job(name, pattern, n, edges, greedy_seed) -> Job:
    def run(dl):
        g = dl.graphs.Graph(n, edges)
        res = dl.solver.greedy_decompose(_pattern(dl, pattern), g,
                                         seed=greedy_seed)
        return (res,) + _round_trip(dl, res.as_decomposition(g))

    def check(result):
        res, back, verified = result
        pn, pedges = pattern
        host = checks.edge_set(edges)
        images = _images(back.copies)
        why, covered = checks.check_copies(pn, pedges, images, host)
        leftover = checks.edge_set(res.leftover.edges)
        if not why and sorted(images) != sorted(_images(res.copies)):
            why = "certificate round trip changed the copies"
        if not why and checks.edge_set(back.host.edges) != host:
            why = "certificate host differs from the input host"
        if not why and checks.edge_set(back.target_edges) != covered:
            why = "certificate target is not the covered edge set"
        if not why and leftover != host - covered:
            why = "leftover is not the host minus the covered edges"
        if not why and not verified:
            why = "verify_decomposition rejected a valid certificate"
        counts = {"greedy_leftover_edges": len(leftover)}
        if why:
            return Outcome(FAILED, why, counts)
        return Outcome(ANSWERED, f"{len(images)} copies, {len(leftover)} "
                                 "leftover edges checked", counts)

    return Job(name, run, check)


def _cover_down_job(n, delta, mu, m_target, run_seed) -> Job:
    def run(dl):
        g = dl.graphs.complete_graph(n)
        f = _pattern(dl, K3)
        v = dl.pipeline.find_vortex(g, delta, mu, m_target, seed=run_seed)
        return v, dl.pipeline.cover_down(f, g, v, seed=run_seed)

    def check(result):
        v, cd = result
        why = checks.check_nested_levels(n, v.sets, mu)
        if why:
            return Outcome(FAILED, why)
        pn, pedges = K3
        status, detail, outside = checks.classify_cover_down(
            checks.edge_set(complete_edges(n)), pn, pedges, _images(cd.copies),
            checks.edge_set(cd.leftover.edges), v.sets[-1], cd.success)
        return Outcome(status, detail, {"outside_residue": outside})

    return Job(f"vortex+cover_down K3->K{n}", run, check)


def _absorber_job() -> Job:
    def run(dl):
        f = _pattern(dl, C4)
        ab = dl.gadgets.build_absorber(f, _pattern(dl, C4))
        return ab, dl.gadgets.verify_absorber(ab)[0]

    def check(result):
        ab, verified = result
        pn, pedges = C4
        a_edges = checks.edge_set(ab.a.edges)
        h_edges = checks.edge_set(ab.h_edges)
        h_vertices = {x for e in h_edges for x in e}
        degrees = sorted(sum(1 for e in h_edges if x in e) for x in h_vertices)
        why = None
        if len(h_edges) != 4 or degrees != [2, 2, 2, 2]:
            why = "absorbed leftover is not a 4-cycle"
        elif a_edges & h_edges:
            why = "leftover edges overlap the absorber"
        elif any(u in h_vertices and v in h_vertices for u, v in a_edges):
            why = "leftover vertices are not independent in the absorber"
        else:
            why = (checks.check_partition(pn, pedges, _images(ab.cert_a.copies),
                                          a_edges)
                   or checks.check_partition(pn, pedges,
                                             _images(ab.cert_ah.copies),
                                             a_edges | h_edges))
        if not why and not verified:
            why = "verify_absorber rejected a valid absorber"
        if why:
            return Outcome(FAILED, why)
        return Outcome(ANSWERED, f"absorber on {ab.a.n} vertices checked")

    return Job("absorber C4", run, check)


def large_host_jobs(seed: int) -> list:
    rng = random.Random(seed)
    k140 = complete_edges(140)
    rng.shuffle(k140)
    return [
        _parse_job(140, k140),
        _greedy_job("greedy K3->K140", K3, 140, k140, rng.randrange(1 << 30)),
        _greedy_job("greedy K4->K140", K4, 140, k140, rng.randrange(1 << 30)),
        _cover_down_job(61, Fraction(3, 4), Fraction(1, 2), 8,
                        rng.randrange(1 << 30)),
        _absorber_job(),
    ]


WORKLOADS = {
    "exact": exact_jobs,
    "fractional": fractional_jobs,
    "large-host": large_host_jobs,
}
