"""Command-line entry point: one process per command, JSON on stdout,
diagnostics on stderr.  Exact fractions are encoded as {"num", "den"}."""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from .classifier import classify_bipartite, classify_vx, discretisation_candidates
from .divisibility import fix_edge_count, make_degree_divisible
from .errors import DecompLabError, ParseError
from .extremal import generate_extremal, obstruction_check
from .gadgets import (build_absorber, build_c4_switcher, build_c6_switcher,
                      build_external_teleporter, build_internal_teleporter,
                      build_k2r_switcher, build_partite_neighbourhood_absorber,
                      build_transformer, verify_absorber, verify_star_cover,
                      verify_switcher, verify_transformer)
from .graphio import (parse_edge_list, serialize_certificate,
                      serialize_edge_list)
from .graphs import GraphMap
from .invariants import (THETA_UNDEFINED, bipartite_invariants, cn_tuples,
                         colouring_invariants, degree_gcd)
from .lattice import verify_lattice_certificate
from .pipeline import cover_down, find_vortex
from .solver import (INDETERMINATE, SAT, UNSAT_LATTICE, cover_vertex,
                     exact_decompose, fractional_decompose, greedy_decompose,
                     verify_decomposition)

EXIT_OK = 0
EXIT_UNSAT = 1
EXIT_INDETERMINATE = 2
EXIT_USAGE = 64
EXIT_FILE = 66
EXIT_ERROR = 70
EXIT_IO = 74


@dataclass
class CommandResult:
    status: str
    payload: dict = field(default_factory=dict)
    diagnostics: list = field(default_factory=list)
    exit_code: int = 0


def _frac(x) -> dict:
    fr = Fraction(x)
    return {"num": fr.numerator, "den": fr.denominator}


def _load_graph(path: str):
    try:
        with open(path) as fh:
            return parse_edge_list(fh.read())
    except OSError as exc:
        raise FileNotFoundError(str(exc))


def _report_payload(rep) -> dict:
    out = {"quantity": rep.quantity, "kind": rep.kind, "rule": rep.rule,
           "assumptions": rep.assumptions}
    if rep.value is not None:
        out["value"] = _frac(rep.value)
    if rep.interval:
        out["interval"] = [_frac(v) for v in rep.interval]
    if rep.value_set:
        out["value_set"] = [v if isinstance(v, str) else _frac(v)
                            for v in rep.value_set]
    return out


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="decomplab",
        description="graph edge-decomposition laboratory")
    sub = top.add_subparsers(dest="command")

    p = sub.add_parser("invariants", help="pattern-side parameters")
    p.add_argument("graph")
    p.add_argument("--bipartite", action="store_true")
    p.add_argument("--colouring", action="store_true")
    p.add_argument("--cn", type=int, metavar="S")

    p = sub.add_parser("classify", help="threshold values")
    p.add_argument("graph")
    p.add_argument("--delta-e", type=Fraction,
                   help="vertex-cover mode: the edge threshold to use")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--vertex-cover", action="store_true",
                      help="report the star-cover threshold instead")
    mode.add_argument("--candidates", action="store_true",
                      help="report discretisation candidates instead")

    p = sub.add_parser("solve", help="exact/fractional decomposition")
    p.add_argument("--pattern", required=True)
    p.add_argument("--host", required=True)
    p.add_argument("--rational", action="store_true", default=None,
                   help="exact arithmetic for the fractional mode")
    p.add_argument("--seed", type=int, help="greedy mode; default 0")
    p.add_argument("--timeout", type=float, help="seconds; default 60")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--fractional", action="store_true")
    mode.add_argument("--vertex", type=int, default=None,
                      help="cover all edges at this vertex instead")
    mode.add_argument("--greedy", action="store_true")

    p = sub.add_parser("fix", help="divisibility repairs")
    p.add_argument("--pattern", required=True)
    p.add_argument("--host", required=True)
    p.add_argument("--mode", choices=("degree", "edges"), required=True)
    p.add_argument("--modulus", type=int,
                   help="degree mode: residue modulus (default: pattern gcd)")
    p.add_argument("--target", type=int,
                   help="edges mode: target edge count residue (default 0)")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("gadget", help="certified gadget construction")
    gsub = p.add_subparsers(dest="gadget_command")
    b = gsub.add_parser("build")
    b.add_argument("--kind", required=True,
                   choices=("c4", "c6", "k2r", "teleporter", "transformer",
                            "absorber", "partite-abs"))
    b.add_argument("--pattern", required=True)
    b.add_argument("--r", type=int)
    b.add_argument("--mode", choices=("internal", "external"))
    b.add_argument("--leftover", help="transformer/absorber: edge-list file")
    b.add_argument("--b", type=int)

    p = sub.add_parser("extremal", help="lower-bound families")
    p.add_argument("--pattern", required=True)
    p.add_argument("--family", required=True,
                   choices=("tau23", "halves", "space", "theta"))
    p.add_argument("--scale", type=int, required=True)

    p = sub.add_parser("pipeline", help="vortex cover-down")
    p.add_argument("--pattern", required=True)
    p.add_argument("--host", required=True)
    p.add_argument("--mu", type=Fraction, required=True)
    p.add_argument("--final-size", type=int, required=True)
    p.add_argument("--delta", type=Fraction, default=None)
    p.add_argument("--seed", type=int, default=0)
    return top


def _usage(why: str) -> CommandResult:
    return CommandResult("error", {"error": "usage"}, [why], EXIT_USAGE)


# per command, each option that only some of its modes read, and those
# modes.  Such an option defaults to None, so that a mode that does not read
# it can refuse it, and its reader applies the default.
_READ_BY = {
    "classify": {"delta_e": ("vertex-cover",)},
    "solve": {"rational": ("fractional",), "seed": ("greedy",),
              "timeout": ("exact", "vertex")},
    "fix": {"modulus": ("degree",), "target": ("edges",)},
    "gadget": {"r": ("k2r",), "mode": ("teleporter",),
               "leftover": ("transformer", "absorber"),
               "b": ("partite-abs",)},
}


def _mode(args):
    """The mode that the flags of a command with modes chose."""
    if args.command == "classify":
        return ("vertex-cover" if args.vertex_cover else
                "candidates" if args.candidates else "threshold")
    if args.command == "solve":
        return ("fractional" if args.fractional else
                "vertex" if args.vertex is not None else
                "greedy" if args.greedy else "exact")
    if args.command == "fix":
        return args.mode
    return getattr(args, "kind", None)     # gadget build


def run(argv) -> CommandResult:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit:
        return _usage("unrecognised arguments")
    if not args.command:
        return _usage("missing subcommand")
    mode = _mode(args)
    for dest, modes in _READ_BY.get(args.command, {}).items():
        if getattr(args, dest, None) is not None and mode not in modes:
            return _usage(f"{args.command} {mode} does not read "
                          f"--{dest.replace('_', '-')}")
    try:
        return _dispatch(args)
    except FileNotFoundError as exc:
        return CommandResult("error", {"error": str(exc)}, [], EXIT_FILE)
    except ParseError as exc:
        return CommandResult("error", {"error": str(exc)}, [], EXIT_FILE)
    except DecompLabError as exc:
        return CommandResult("error",
                             {"error": str(exc),
                              "type": type(exc).__name__}, [], EXIT_ERROR)


def _dispatch(args) -> CommandResult:
    if args.command == "invariants":
        return _cmd_invariants(args)
    if args.command == "classify":
        return _cmd_classify(args)
    if args.command == "solve":
        return _cmd_solve(args)
    if args.command == "fix":
        return _cmd_fix(args)
    if args.command == "gadget":
        return _cmd_gadget(args)
    if args.command == "extremal":
        return _cmd_extremal(args)
    if args.command == "pipeline":
        return _cmd_pipeline(args)
    return _usage("unknown command")


def _cmd_invariants(args) -> CommandResult:
    g = _load_graph(args.graph)
    payload = {"vertices": g.n, "edges": g.e, "degree_gcd": degree_gcd(g)}
    if args.bipartite or not (args.colouring or args.cn is not None):
        if g.is_bipartite() and g.e >= 2:
            inv = bipartite_invariants(g)
            payload["bipartite"] = {
                "tau": inv.tau, "tau_tilde": inv.tau_tilde,
                "bridges": [list(e) for e in inv.bridge_edges],
                "component_edge_counts": inv.component_edge_counts,
            }
        elif args.bipartite:
            inv = bipartite_invariants(g)   # raises with the odd cycle
    if args.colouring:
        inv = colouring_invariants(g)
        payload["colouring"] = {
            "chi": inv.chi,
            "chi_critical": _frac(inv.chi_cr),
            "sigma": inv.sigma,
            "chi_vertex": _frac(inv.chi_vx),
            "theta": None if inv.theta is THETA_UNDEFINED else inv.theta,
        }
    if args.cn is not None:
        tuples = cn_tuples(g, args.cn)
        payload["cn_tuples"] = sorted(t.degrees for t in tuples)
    return CommandResult("ok", payload)


def _cmd_classify(args) -> CommandResult:
    g = _load_graph(args.graph)
    if args.vertex_cover:
        rep = classify_vx(g, args.delta_e)
    elif args.candidates:
        rep = discretisation_candidates(g)
    else:
        rep = classify_bipartite(g)
    payload = _report_payload(rep)
    if rep.quantity == "decomposition_threshold" and rep.kind == "exact":
        payload["delta_F"] = _frac(rep.value)
    return CommandResult("ok", payload)


def _rejected(what: str, why) -> CommandResult:
    """An answer that its own verifier rejects: an error naming the
    violation, and nothing of the answer."""
    return CommandResult("error", {"error": f"{what} fails its verifier",
                                   "violation": why}, [why or ""], EXIT_ERROR)


def _cmd_solve(args) -> CommandResult:
    f = _load_graph(args.pattern)
    g = _load_graph(args.host)
    if args.fractional:
        mode = "rational" if args.rational else "float"
        res = fractional_decompose(f, g, mode=mode)
        if res.status == "feasible":
            # one image per weight, in the same order, so the payload alone
            # shows each host edge's load
            sol = res.solution
            payload = {"status": "feasible",
                       "copies": len(sol.images),
                       "images": [list(im) for im in sol.images],
                       "weights": [(_frac(w) if mode == "rational" else w)
                                   for w in sol.weights]}
            return CommandResult("ok", payload)
        if res.status == INDETERMINATE:
            return CommandResult("indeterminate", {"status": res.status}, [],
                                 EXIT_INDETERMINATE)
        if mode == "float":
            # HiGHS's claim, not a proof: no unsat exit code
            return CommandResult("indeterminate", {"status": res.status,
                                                   "proved": False}, [],
                                 EXIT_INDETERMINATE)
        # the checked Farkas y over sorted(host edges), as [u, v, y_uv]
        # where y_uv != 0
        return CommandResult("unsat", {
            "status": res.status, "proved": True,
            "certificate": [[u, v, _frac(t)] for (u, v), t
                            in zip(sorted(g.edges), res.farkas) if t]},
            [], EXIT_UNSAT)
    if args.greedy:
        out = greedy_decompose(f, g, seed=args.seed or 0)
        return CommandResult("ok", {"copies": len(out.copies),
                                    "leftover_edges": out.leftover.e})
    timeout = 60.0 if args.timeout is None else args.timeout
    if args.vertex is not None:
        res = cover_vertex(f, g, args.vertex, timeout=timeout)
    else:
        res = exact_decompose(f, g, timeout=timeout)
    if res.status == SAT:
        if args.vertex is None:
            ok, why = verify_decomposition(res.decomposition)
        else:
            ok, why = verify_star_cover(f, g, args.vertex, res.decomposition)
        if not ok:
            return _rejected("the decomposition", why)
        return CommandResult(
            "ok", json.loads(serialize_certificate(res.decomposition)))
    if res.status == INDETERMINATE:
        return CommandResult("indeterminate", {"status": res.status}, [],
                             EXIT_INDETERMINATE)
    payload = {"status": res.status}
    if res.status == UNSAT_LATTICE:
        ok, why = verify_lattice_certificate(f, g, res.lattice)
        if not ok:
            return _rejected("the lattice certificate", why)
        # y over sorted(host edges), listed as [u, v, y_uv] where y_uv != 0
        payload["modulus"] = res.lattice.modulus
        payload["certificate"] = [[u, v, t] for (u, v), t
                                  in zip(sorted(g.edges), res.lattice.y) if t]
    elif res.report is not None and hasattr(res.report, "degree_residues"):
        payload["edge_residue"] = res.report.edge_residue
        payload["degree_residues"] = {
            str(k): v for k, v in res.report.degree_residues.items()}
    elif isinstance(res.report, dict):
        payload.update(res.report)
    return CommandResult("unsat", payload, [], EXIT_UNSAT)


def _cmd_fix(args) -> CommandResult:
    f = _load_graph(args.pattern)
    g = _load_graph(args.host)
    if args.mode == "degree":
        r = degree_gcd(f) if args.modulus is None else args.modulus
        h = make_degree_divisible(g, r, {}, seed=args.seed)
    else:
        h = fix_edge_count(g, list(range(g.n)), f, args.target or 0,
                           seed=args.seed)
    return CommandResult("ok", {"removed": serialize_edge_list(h),
                                "removed_edges": h.e,
                                "max_degree": h.max_degree()})


def _verdict(payload: dict, ok: bool, why) -> CommandResult:
    """A built gadget with its own verifier's verdict; a rejected one is an
    error."""
    payload.update(verified=ok, violation=why)
    if ok:
        return CommandResult("ok", payload)
    return CommandResult("error", payload, [why or ""], EXIT_ERROR)


def _cmd_gadget(args) -> CommandResult:
    if args.gadget_command != "build":
        return _usage("missing gadget subcommand")
    kind = args.kind
    if kind in ("transformer", "absorber") and args.leftover is None:
        return _usage(f"--kind {kind} needs --leftover")
    f = _load_graph(args.pattern)
    if kind == "c4":
        sw = build_c4_switcher(f)
    elif kind == "c6":
        sw = build_c6_switcher(f)
    elif kind == "k2r":
        r = degree_gcd(f) if args.r is None else args.r
        sw = build_k2r_switcher(f, r)
    elif kind == "teleporter":
        sw = (build_external_teleporter(f) if args.mode == "external"
              else build_internal_teleporter(f))
    elif kind == "transformer":
        h = _load_graph(args.leftover)
        tr = build_transformer(f, h, GraphMap(h, h, tuple(range(h.n))))
        return _verdict({"kind": kind, "vertices": tr.t.n, "edges": tr.t.e},
                        *verify_transformer(tr))
    elif kind == "absorber":
        h = _load_graph(args.leftover)
        ab = build_absorber(f, h)
        return _verdict({"kind": kind, "vertices": ab.a.n, "edges": ab.a.e},
                        *verify_absorber(ab))
    else:
        pa = build_partite_neighbourhood_absorber(
            f, 1 if args.b is None else args.b)
        ok, why = verify_star_cover(f, pa.graph, pa.x, pa.cover_plain)
        if ok:
            ok, why = verify_star_cover(f, pa.cover_with_w.host, pa.x,
                                        pa.cover_with_w)
            why = why and f"with the bundle: {why}"
        return _verdict({"kind": kind, "vertices": pa.graph.n,
                         "bundle": len(pa.w), "centre": pa.x}, ok, why)
    ok, why = verify_switcher(sw)
    payload = {
        "kind": kind,
        "graph": {"n": sw.model.graph.n,
                  "edges": [list(e) for e in sorted(sw.model.graph.edges)]},
        "vertices": sw.model.graph.n,
        "edges": sw.model.graph.e,
        "roots": list(sw.model.roots),
        "e1": sorted(list(e) for e in sw.e1),
        "e2": sorted(list(e) for e in sw.e2),
        "cert1": json.loads(serialize_certificate(sw.cert1)),
        "cert2": json.loads(serialize_certificate(sw.cert2)),
        "compression_width": sw.compression.d,
    }
    return _verdict(payload, ok, why)


def _cmd_extremal(args) -> CommandResult:
    f = _load_graph(args.pattern)
    family = {"tau23": "tau_23"}.get(args.family, args.family)
    inst = generate_extremal(f, family, args.scale)
    payload = {"graph": serialize_edge_list(inst.graph),
               "vertices": inst.graph.n, "edges": inst.graph.e,
               "report": {k: str(v) for k, v in inst.report.items()}}
    if inst.certificate:
        cert = inst.certificate
        payload["certificate"] = {
            "kind": cert.kind, "region": sorted(cert.region),
            "modulus": cert.modulus, "residue": cert.residue,
            "checked": obstruction_check(f, inst.graph, cert)}
    return CommandResult("ok", payload)


def _cmd_pipeline(args) -> CommandResult:
    f = _load_graph(args.pattern)
    g = _load_graph(args.host)
    delta = args.delta
    if delta is None:
        delta = Fraction(g.min_degree(), max(g.n, 1))
    vor = find_vortex(g, delta, args.mu, args.final_size, seed=args.seed)
    res = cover_down(f, g, vor, seed=args.seed)
    payload = {"levels": vor.depth, "final_size": vor.m,
               "success": res.success,
               "copies": len(res.copies),
               "leftover_edges": res.leftover.e,
               "stats": res.stats}
    if not res.success:
        # a failed cover-down is no answer, not a proof of anything
        return CommandResult("error", payload, [], EXIT_INDETERMINATE)
    return CommandResult("ok", payload)


def main(argv=None) -> int:
    result = run(argv if argv is not None else sys.argv[1:])
    out = {"status": result.status, **result.payload}
    try:
        print(json.dumps(out, indent=None, default=str))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early: point it at devnull so that the
        # flush at interpreter exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("stdout closed before the output was written", file=sys.stderr)
        return EXIT_IO
    for line in result.diagnostics:
        print(line, file=sys.stderr)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
