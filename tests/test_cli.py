import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import decomplab
from decomplab import cli, lp
from decomplab.cli import (EXIT_ERROR, EXIT_INDETERMINATE, EXIT_IO, EXIT_OK,
                           EXIT_UNSAT, EXIT_USAGE, run)
from decomplab.classifier import classify_vx, discretisation_candidates
from decomplab.divisibility import fix_edge_count, make_degree_divisible
from decomplab.extremal import generate_extremal
from decomplab.graphio import parse_edge_list, serialize_edge_list
from decomplab.graphs import (Graph, complete_graph, cycle_graph,
                              disjoint_union, path_graph)
from decomplab.invariants import (bipartite_invariants, cn_tuples,
                                  colouring_invariants)
from decomplab.lattice import LatticeCertificate, verify_lattice_certificate
from decomplab.pipeline import cover_down, find_vortex
from decomplab.solver import cover_vertex, greedy_decompose
from test_lp import _farkas_holds


def _write(tmp_path, name, g):
    path = tmp_path / name
    path.write_text(serialize_edge_list(g))
    return str(path)


def test_solve_and_vertex_cover(tmp_path):
    f = _write(tmp_path, "k3.txt", complete_graph(3))
    g = _write(tmp_path, "k7.txt", complete_graph(7))
    res = run(["solve", "--pattern", f, "--host", g])
    assert res.exit_code == EXIT_OK and res.diagnostics == []
    assert len(res.payload["copies"]) == 7
    res = run(["solve", "--pattern", f, "--host", g, "--vertex", "0"])
    assert res.exit_code == EXIT_OK and res.diagnostics == []
    assert len(res.payload["copies"]) == 3
    assert {0, 1, 2, 3, 4, 5, 6} == {
        v for img in res.payload["copies"] for v in img}
    json.dumps(res.payload)


def test_ignored_flags_are_gone(tmp_path):
    f = _write(tmp_path, "k3.txt", complete_graph(3))
    res = run(["--threads", "2", "solve", "--pattern", f, "--host", f])
    assert res.exit_code == EXIT_USAGE
    res = run(["--format", "text", "solve", "--pattern", f, "--host", f])
    assert res.exit_code == EXIT_USAGE
    # --seed and --timeout are options of the commands that read them
    res = run(["--seed", "1", "invariants", f])
    assert res.exit_code == EXIT_USAGE
    res = run(["--timeout", "5", "solve", "--pattern", f, "--host", f])
    assert res.exit_code == EXIT_USAGE
    # options that the chosen mode would not read
    refused = [["solve", "--rational", "--pattern", f, "--host", f],
               ["solve", "--greedy", "--vertex", "0", "--pattern", f,
                "--host", f],
               ["classify", "--vertex-cover", "--candidates", f],
               ["classify", "--delta-e", "1/2", f],
               ["gadget", "build", "--kind", "c6", "--strategy", "general",
                "--pattern", f]]
    # the 34 (mode, option) pairs that were once accepted and not read
    unread = [["fix", "--mode", "edges", "--modulus", "7", "--pattern", f,
               "--host", f],
              ["fix", "--mode", "degree", "--target", "5", "--pattern", f,
               "--host", f]]
    # every mode, and whether it reads --seed and --timeout
    modes = [(["invariants", f], False, False),
             (["classify", f], False, False),
             (["classify", "--vertex-cover", f], False, False),
             (["classify", "--candidates", f], False, False),
             (["solve", "--pattern", f, "--host", f], False, True),
             (["solve", "--fractional", "--pattern", f, "--host", f],
              False, False),
             (["solve", "--vertex", "0", "--pattern", f, "--host", f],
              False, True),
             (["solve", "--greedy", "--pattern", f, "--host", f],
              True, False),
             (["fix", "--mode", "degree", "--pattern", f, "--host", f],
              True, False),
             (["fix", "--mode", "edges", "--pattern", f, "--host", f],
              True, False),
             (["extremal", "--pattern", f, "--family", "halves",
               "--scale", "1"], False, False),
             (["pipeline", "--pattern", f, "--host", f, "--mu", "1/2",
               "--final-size", "2"], True, False)]
    modes += [(["gadget", "build", "--kind", kind, "--pattern", f],
               False, False)
              for kind in ("c4", "c6", "k2r", "teleporter", "transformer",
                           "absorber", "partite-abs")]
    assert len(modes) == 19
    for argv, reads_seed, reads_timeout in modes:
        if not reads_seed:
            unread.append(argv + ["--seed", "1"])
        if not reads_timeout:
            unread.append(argv + ["--timeout", "5"])
    assert len(unread) == 34
    for argv in refused + unread:
        res = run(argv)
        assert res.exit_code == EXIT_USAGE, argv
        assert res.payload == {"error": "usage"}, argv


def test_zero_reaches_the_builders(tmp_path):
    # 0 is a value, not a request for the pattern's degree gcd
    f = _write(tmp_path, "k3.txt", complete_graph(3))
    g = _write(tmp_path, "k7.txt", complete_graph(7))
    res = run(["gadget", "build", "--kind", "k2r", "--pattern", f,
               "--r", "0"])
    assert res.exit_code == EXIT_ERROR
    assert res.payload["type"] == "DomainError"
    res = run(["fix", "--mode", "degree", "--modulus", "0", "--pattern", f,
               "--host", g])
    assert res.exit_code == EXIT_ERROR
    assert res.payload["type"] == "InputError"
    res = run(["invariants", "--cn", "0", f])
    assert res.exit_code == EXIT_ERROR
    assert res.payload["type"] == "DomainError"


@pytest.mark.parametrize("kind, pattern, options", [
    ("c4", complete_graph(3), []),
    ("c6", complete_graph(3), []),
    ("c6", path_graph(2), []),
    ("k2r", complete_graph(3), []),
    ("teleporter", path_graph(2), ["--mode", "internal"]),
    ("teleporter", disjoint_union(complete_graph(2), path_graph(2)),
     ["--mode", "external"]),
    ("transformer", cycle_graph(4), ["--leftover", cycle_graph(5)]),
    ("absorber", cycle_graph(4), ["--leftover", cycle_graph(4)]),
    ("partite-abs", complete_graph(3), ["--b", "1"]),
])
def test_gadget_build_every_kind(tmp_path, kind, pattern, options):
    options = [_write(tmp_path, "leftover.txt", o) if isinstance(o, Graph)
               else o for o in options]
    res = run(["gadget", "build", "--kind", kind,
               "--pattern", _write(tmp_path, "pattern.txt", pattern),
               *options])
    assert res.exit_code == EXIT_OK, res.payload
    assert res.payload["kind"] == kind
    assert res.payload["verified"] is True
    assert res.payload["violation"] is None
    json.dumps(res.payload)


@pytest.mark.parametrize("kind, options", [
    ("c4", ["--r", "2"]),
    ("k2r", ["--mode", "internal"]),
    ("c6", ["--mode", "internal"]),
    ("teleporter", ["--b", "1"]),
    ("partite-abs", ["--leftover", "c4.txt"]),
    ("absorber", ["--leftover", "c4.txt", "--r", "2"]),
    ("transformer", []),
    ("absorber", []),
])
def test_gadget_build_rejects_flags_its_kind_does_not_read(tmp_path, kind,
                                                           options):
    c4 = _write(tmp_path, "c4.txt", cycle_graph(4))
    options = [c4 if o == "c4.txt" else o for o in options]
    res = run(["gadget", "build", "--kind", kind, "--pattern", c4, *options])
    assert res.exit_code == EXIT_USAGE, res.diagnostics
    assert res.payload == {"error": "usage"}


@pytest.mark.parametrize("kind, builder, options, damage", [
    ("c4", "build_c4_switcher", [], lambda g: g.cert1.copies.pop()),
    ("absorber", "build_absorber", ["--leftover", "c4.txt"],
     lambda g: g.cert_ah.copies.pop()),
    ("partite-abs", "build_partite_neighbourhood_absorber", [],
     lambda g: g.cover_with_w.copies.pop()),
])
def test_gadget_build_rejected_by_its_verifier_is_an_error(
        tmp_path, monkeypatch, kind, builder, options, damage):
    c4 = _write(tmp_path, "c4.txt", cycle_graph(4))
    options = [c4 if o == "c4.txt" else o for o in options]
    build = getattr(cli, builder)

    def broken(*args):
        gadget = build(*args)
        damage(gadget)
        return gadget

    monkeypatch.setattr(cli, builder, broken)
    res = run(["gadget", "build", "--kind", kind, "--pattern", c4, *options])
    assert res.status == "error" and res.exit_code == EXIT_ERROR
    assert res.payload["verified"] is False
    assert res.payload["violation"] and res.diagnostics == [
        res.payload["violation"]]


def test_solve_vertex_refuses_a_cover_that_misses_a_star_edge(tmp_path,
                                                              monkeypatch):
    f = _write(tmp_path, "k3.txt", complete_graph(3))
    g = _write(tmp_path, "k7.txt", complete_graph(7))
    cover_vertex = cli.cover_vertex

    def short(*args, **kwargs):
        # one copy dropped with its edges: still a valid decomposition of
        # its target, but two star edges at 0 are left uncovered
        res = cover_vertex(*args, **kwargs)
        dec = res.decomposition
        gone = dec.copies.pop()
        dec.target_edges = dec.target_edges - gone.edge_image()
        return res

    monkeypatch.setattr(cli, "cover_vertex", short)
    res = run(["solve", "--pattern", f, "--host", g, "--vertex", "0"])
    assert res.status == "error" and res.exit_code == EXIT_ERROR
    assert res.payload["violation"].startswith("star edge (0, ")
    assert "copies" not in res.payload


@pytest.mark.parametrize("argv", [["invariants", "--colouring"],
                                  ["classify", "--vertex-cover"],
                                  ["classify", "--candidates"]])
def test_colouring_commands_on_a_long_cycle_hit_the_guard(tmp_path, argv):
    res = run([*argv, _write(tmp_path, "c2001.txt", cycle_graph(2001))])
    assert res.exit_code == EXIT_ERROR
    assert res.payload["type"] == "SizeGuardError"


@pytest.mark.parametrize("argv", [["classify", "--vertex-cover"],
                                  ["classify", "--candidates"],
                                  ["gadget", "build", "--kind", "partite-abs",
                                   "--pattern"]])
def test_colouring_commands_refuse_an_isolated_vertex(tmp_path, argv):
    k3_plus_vertex = Graph(4, [(0, 1), (1, 2), (0, 2)])
    res = run([*argv, _write(tmp_path, "k3i.txt", k3_plus_vertex)])
    assert res.exit_code == EXIT_ERROR
    assert res.payload["error"] == "pattern has an isolated vertex"


def _q(num, den=1):
    return {"num": num, "den": den}


def test_invariants_payloads_match_the_library(tmp_path):
    c4, k4, k3 = cycle_graph(4), complete_graph(4), complete_graph(3)
    res = run(["invariants", _write(tmp_path, "c4.txt", c4)])
    assert res.exit_code == EXIT_OK
    inv = bipartite_invariants(c4)
    assert (inv.tau, inv.tau_tilde, inv.bridge_edges,
            inv.component_edge_counts) == (2, 4, [], [4])
    assert res.payload == {
        "vertices": 4, "edges": 4, "degree_gcd": 2,
        "bipartite": {"tau": 2, "tau_tilde": 4, "bridges": [],
                      "component_edge_counts": [4]}}

    res = run(["invariants", "--colouring", _write(tmp_path, "k4.txt", k4)])
    assert res.exit_code == EXIT_OK
    inv = colouring_invariants(k4)
    assert (inv.chi, inv.theta) == (4, 2)
    assert res.payload["colouring"] == {
        "chi": inv.chi, "chi_critical": _q(inv.chi_cr.numerator,
                                           inv.chi_cr.denominator),
        "sigma": inv.sigma, "chi_vertex": _q(inv.chi_vx.numerator,
                                             inv.chi_vx.denominator),
        "theta": inv.theta}

    k3_path = _write(tmp_path, "k3.txt", k3)
    res = run(["invariants", "--cn", "3", k3_path])
    assert res.exit_code == EXIT_OK
    assert [list(t.degrees) for t in cn_tuples(k3, 3)] == [[1, 1]]
    assert json.loads(json.dumps(res.payload["cn_tuples"])) == [[1, 1]]

    res = run(["invariants", "--bipartite", k3_path])
    assert res.exit_code == EXIT_ERROR
    assert res.payload["type"] == "DomainError"
    assert "odd cycle" in res.payload["error"]


K4_PENDANT = Graph(5, [*complete_graph(4).edges, (3, 4)])


@pytest.mark.parametrize("flags, pattern, report, want", [
    (["--vertex-cover"], cycle_graph(4), classify_vx,
     {"kind": "exact", "value": _q(1, 2)}),
    (["--vertex-cover"], path_graph(3), classify_vx,
     {"kind": "exact", "value": _q(0)}),
    (["--vertex-cover"], K4_PENDANT, classify_vx,
     {"kind": "interval", "interval": [_q(2, 3), _q(3, 4)]}),
    (["--vertex-cover", "--delta-e", "9/10"], K4_PENDANT,
     lambda g: classify_vx(g, Fraction(9, 10)),
     {"kind": "exact", "value": _q(9, 10)}),
    (["--candidates"], complete_graph(5), discretisation_candidates,
     {"kind": "set",
      "value_set": ["fractional_threshold", _q(4, 5), _q(5, 6)]}),
    (["--candidates"], complete_graph(3), discretisation_candidates,
     {"kind": "bound", "value_set": ["fractional_threshold", _q(3, 4)],
      "assumptions": [
          "first member is the fractional threshold, not computed here",
          "triangle: fractional threshold known to be at most 9/10"]}),
    (["--candidates"], cycle_graph(4), discretisation_candidates,
     {"kind": "exact", "value": _q(2, 3), "delta_F": _q(2, 3)}),
])
def test_classify_modes_report_the_library_values(tmp_path, flags, pattern,
                                                  report, want):
    res = run(["classify", *flags, _write(tmp_path, "f.txt", pattern)])
    assert res.exit_code == EXIT_OK
    rep = report(pattern)
    assert res.payload == {"quantity": rep.quantity, "kind": rep.kind,
                           "rule": rep.rule,
                           "assumptions": rep.assumptions, **want}


def test_solve_vertex_reports_the_violated_residue(tmp_path):
    k3, k6 = complete_graph(3), complete_graph(6)
    res = run(["solve", "--vertex", "0",
               "--pattern", _write(tmp_path, "k3.txt", k3),
               "--host", _write(tmp_path, "k6.txt", k6)])
    assert res.exit_code == EXIT_UNSAT
    want = {"vertex": 0, "degree": 5, "modulus": 2, "residue": 1}
    assert cover_vertex(k3, k6, 0).report == want
    assert res.payload == {"status": "unsat_divisibility", **want}


def test_fractional_solve(tmp_path, monkeypatch):
    f = _write(tmp_path, "k3.txt", complete_graph(3))
    g = _write(tmp_path, "k7.txt", complete_graph(7))
    res = run(["solve", "--fractional", "--rational", "--pattern", f,
               "--host", g])
    assert res.exit_code == EXIT_OK and res.payload["status"] == "feasible"
    weights = [Fraction(w["num"], w["den"]) for w in res.payload["weights"]]
    # three edges per copy: the loads of the 21 edges sum to 3 * sum(weights)
    assert len(weights) == 35 and min(weights) >= 0 and 3 * sum(weights) == 21

    h = _write(tmp_path, "k4e.txt",
               Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]))
    res = run(["solve", "--fractional", "--rational", "--pattern", f,
               "--host", h])
    assert res.exit_code == EXIT_UNSAT and res.payload["status"] == "infeasible"

    with monkeypatch.context() as m:
        # no certificate checks: neither feasible nor infeasible is claimed
        m.setattr(lp, "_rationalise", lambda v: [Fraction(0)] * len(v))
        res = run(["solve", "--fractional", "--rational", "--pattern", f,
                   "--host", h])
    assert res.exit_code == EXIT_INDETERMINATE
    assert res.payload["status"] == "indeterminate"

    g = _write(tmp_path, "k25.txt", complete_graph(25))
    res = run(["solve", "--fractional", "--pattern", f, "--host", g])
    assert res.exit_code == EXIT_OK and res.payload["status"] == "feasible"
    assert res.payload["copies"] == 2300
    json.dumps(res.payload)


@pytest.mark.parametrize("n, rational", [(7, True), (9, False)])
def test_fractional_payload_shows_every_edge_load(tmp_path, n, rational):
    # from the payload alone: one image per weight, and every host edge
    # carries a load of 1, exactly in rational mode
    k3 = complete_graph(3)
    f = _write(tmp_path, "k3.txt", k3)
    g = _write(tmp_path, "kn.txt", complete_graph(n))
    res = run(["solve", "--fractional", "--pattern", f, "--host", g]
              + ["--rational"] * rational)
    assert res.exit_code == EXIT_OK and res.payload["status"] == "feasible"
    payload = json.loads(json.dumps(res.payload))
    images, weights = payload["images"], payload["weights"]
    assert len(images) == len(weights) == payload["copies"]
    load = dict.fromkeys(complete_graph(n).edges, 0)
    for img, w in zip(images, weights):
        w = Fraction(w["num"], w["den"]) if rational else w
        for a, b in k3.edges:
            load[tuple(sorted((img[a], img[b])))] += w
    if rational:
        assert set(load.values()) == {1}
    else:
        assert max(abs(x - 1) for x in load.values()) <= 1e-9


@pytest.mark.parametrize("n, flags, digest", [
    (9, ["--rational"],
     "ccdfdab2325686c397944984e6b151066cc9f9fb6cc3e6e24d86be263c3da2db"),
    (25, [],
     "b4803569275555d5384d51e06f41b1c341106e7619ff7c643341c3d558a3dd77"),
])
def test_fractional_stdout_is_golden(tmp_path, capsys, n, flags, digest):
    # the whole printed line, trailing newline included
    f = _write(tmp_path, "k3.txt", complete_graph(3))
    g = _write(tmp_path, "kn.txt", complete_graph(n))
    assert cli.main(["solve", "--fractional", *flags, "--pattern", f,
                     "--host", g]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("\n") == 1 and out.endswith("\n")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_a_closed_stdout_exits_without_a_traceback(tmp_path):
    f = _write(tmp_path, "k3.txt", complete_graph(3))
    g = _write(tmp_path, "k9.txt", complete_graph(9))
    # a pipe whose reader is gone before the command starts
    r, w = os.pipe()
    os.close(r)
    src = os.path.dirname(os.path.dirname(decomplab.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "decomplab.cli", "solve", "--fractional",
             "--rational", "--pattern", f, "--host", g],
            stdout=w, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(w)
    assert proc.returncode == EXIT_IO
    assert proc.stderr.decode() == (
        "stdout closed before the output was written\n")


def test_fractional_infeasible_exit_codes(tmp_path):
    k3 = complete_graph(3)
    host = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    f = _write(tmp_path, "k3.txt", k3)
    h = _write(tmp_path, "k4e.txt", host)
    # a rational infeasible is proved: its Farkas y is printed, nonzero
    # entries only, as [u, v, y_uv] over the sorted host edges
    res = run(["solve", "--fractional", "--rational", "--pattern", f,
               "--host", h])
    assert res.exit_code == EXIT_UNSAT
    assert res.payload["status"] == "infeasible" and res.payload["proved"]
    y = {(u, v): Fraction(t["num"], t["den"])
         for u, v, t in res.payload["certificate"]}
    assert set(y) <= host.edges and all(y.values())
    assert _farkas_holds(k3, host, [y.get(e, 0) for e in sorted(host.edges)])
    json.dumps(res.payload)
    # a float infeasible is HiGHS's claim only
    res = run(["solve", "--fractional", "--pattern", f, "--host", h])
    assert res.exit_code == EXIT_INDETERMINATE
    assert res.payload == {"status": "infeasible", "proved": False}


def test_solve_rejects_a_certificate_its_verifier_rejects(tmp_path,
                                                          monkeypatch):
    f = _write(tmp_path, "k3.txt", complete_graph(3))
    g = _write(tmp_path, "k7.txt", complete_graph(7))
    monkeypatch.setattr(cli, "verify_decomposition",
                        lambda dec: (False, "edge (0, 1) covered twice"))
    res = run(["solve", "--pattern", f, "--host", g])
    assert res.status == "error" and res.exit_code == EXIT_ERROR
    assert res.payload["violation"] == "edge (0, 1) covered twice"
    assert "copies" not in res.payload


def test_solve_prints_a_lattice_certificate(tmp_path):
    c4 = cycle_graph(4)
    f = _write(tmp_path, "c4.txt", c4)
    res = run(["extremal", "--pattern", f, "--family", "tau23",
               "--scale", "2"])
    g = tmp_path / "tau23.txt"
    g.write_text(res.payload["graph"])
    res = run(["solve", "--pattern", f, "--host", str(g)])
    assert res.exit_code == EXIT_UNSAT
    assert res.payload["status"] == "unsat_lattice"
    assert res.payload["modulus"] == 2
    host = parse_edge_list(g.read_text())
    y = {(u, v): t for u, v, t in res.payload["certificate"]}
    assert set(y) <= host.edges and all(y.values())
    cert = LatticeCertificate(2, tuple(y.get(e, 0) for e in sorted(host.edges)))
    assert verify_lattice_certificate(c4, host, cert) == (True, None)
    json.dumps(res.payload)


def test_solve_rejects_a_lattice_certificate_its_verifier_rejects(
        tmp_path, monkeypatch):
    c4 = cycle_graph(4)
    host = generate_extremal(c4, "tau_23", 2).graph
    exact_decompose = cli.exact_decompose
    bad = []

    def flipped(*args, **kwargs):
        res = exact_decompose(*args, **kwargs)
        p, y = res.lattice.modulus, res.lattice.y
        res.lattice = LatticeCertificate(p, ((y[0] + 1) % p,) + y[1:])
        bad.append(res.lattice)
        return res

    monkeypatch.setattr(cli, "exact_decompose", flipped)
    res = run(["solve", "--pattern", _write(tmp_path, "c4.txt", c4),
               "--host", _write(tmp_path, "tau23.txt", host)])
    assert res.status == "error" and res.exit_code == EXIT_ERROR
    ok, why = verify_lattice_certificate(c4, host, bad[0])
    assert not ok and res.payload["violation"] == why
    assert res.diagnostics == [why] and "certificate" not in res.payload


def test_greedy_fix_and_pipeline_outputs(tmp_path):
    # outputs of the set-based kernel before rank masks
    f = _write(tmp_path, "k3.txt", complete_graph(3))
    k21 = _write(tmp_path, "k21.txt", complete_graph(21))
    k12 = _write(tmp_path, "k12.txt", complete_graph(12))
    res = run(["solve", "--greedy", "--pattern", f, "--host", k21])
    assert res.exit_code == EXIT_OK
    assert res.payload == {"copies": 64, "leftover_edges": 18}

    res = run(["fix", "--mode", "degree", "--pattern", f, "--host", k12])
    assert res.exit_code == EXIT_OK
    removed = ("12\n0 4\n0 5\n0 9\n1 2\n1 3\n1 7\n1 8\n1 9\n2 3\n2 4\n"
               "3 5\n3 6\n3 7\n3 10\n3 11\n4 10\n5 7\n5 8\n5 9\n5 10\n"
               "5 11\n6 8\n6 10\n10 11\n")
    assert res.payload == {"removed": removed, "removed_edges": 24,
                           "max_degree": 7}
    # K3's degree gcd is 2: what is left of K12 has every degree even
    h = parse_edge_list(removed)
    assert all((11 - d) % 2 == 0 for d in h.degrees())

    res = run(["pipeline", "--pattern", f, "--host", k21, "--mu", "1/2",
               "--final-size", "5"])
    assert res.status == "error" and res.exit_code == EXIT_INDETERMINATE
    assert res.payload == {
        "levels": 2, "final_size": 5, "success": False, "copies": 65,
        "leftover_edges": 15, "stats": [
            {"level": 1, "inner": 10, "greedy_copies": 0, "sweep_stalls": 17,
             "outside_residue": 12},
            {"level": 2, "inner": 5, "greedy_copies": 0, "sweep_stalls": 18,
             "outside_residue": 13}]}


def test_seed_and_timeout_reach_their_readers(tmp_path, monkeypatch):
    # the modes that read --seed or --timeout take it after their command
    # (test_greedy_fix_and_pipeline_outputs pins the outputs of seed 0)
    k3, k12, k21 = complete_graph(3), complete_graph(12), complete_graph(21)
    f = _write(tmp_path, "k3.txt", k3)
    h12 = _write(tmp_path, "k12.txt", k12)
    h21 = _write(tmp_path, "k21.txt", k21)
    res = run(["solve", "--greedy", "--seed", "1", "--pattern", f,
               "--host", h21])
    out = greedy_decompose(k3, k21, seed=1)
    assert res.payload == {"copies": len(out.copies),
                           "leftover_edges": out.leftover.e}
    res = run(["fix", "--mode", "degree", "--seed", "1", "--pattern", f,
               "--host", h12])
    want = make_degree_divisible(k12, 2, {}, seed=1)
    assert res.payload["removed"] == serialize_edge_list(want)
    res = run(["fix", "--mode", "edges", "--target", "1", "--seed", "1",
               "--pattern", f, "--host", h12])
    want = fix_edge_count(k12, list(range(12)), k3, 1, seed=1)
    assert res.payload["removed"] == serialize_edge_list(want)
    res = run(["pipeline", "--seed", "1", "--pattern", f, "--host", h21,
               "--mu", "1/2", "--final-size", "5"])
    vor = find_vortex(k21, Fraction(20, 21), Fraction(1, 2), 5, seed=1)
    out = cover_down(k3, k21, vor, seed=1)
    assert (res.payload["copies"], res.payload["leftover_edges"]) == (
        len(out.copies), out.leftover.e)

    # left out, the timeout is 60 s
    timeouts = []

    def spy(solve):
        def wrapped(*args, timeout):
            timeouts.append(timeout)
            return solve(*args, timeout=timeout)
        return wrapped

    monkeypatch.setattr(cli, "exact_decompose", spy(cli.exact_decompose))
    monkeypatch.setattr(cli, "cover_vertex", spy(cli.cover_vertex))
    for mode in ([], ["--vertex", "0"]):
        for given in ([], ["--timeout", "30"]):
            res = run(["solve", *mode, *given, "--pattern", f,
                       "--host", h21])
            assert res.exit_code == EXIT_OK
    assert timeouts == [60.0, 30.0, 60.0, 30.0]


@pytest.mark.parametrize("target, removed_edges, max_degree, digest", [
    (0, 0, 0, "a1fb50e6c86fae16"),
    (1, 22, 4, "9c815cf90d1cc6bc"),
    (2, 11, 2, "0bc28a8b527b5602"),
])
def test_fix_edges_outputs(tmp_path, target, removed_edges, max_degree,
                           digest):
    # K12 has 66 edges; removing Hamilton cycles of K11 (11 edges each)
    # moves the count to the target residue mod 3
    f = _write(tmp_path, "k3.txt", complete_graph(3))
    k12 = _write(tmp_path, "k12.txt", complete_graph(12))
    res = run(["fix", "--mode", "edges", "--target", str(target),
               "--pattern", f, "--host", k12])
    assert res.exit_code == EXIT_OK
    assert (res.payload["removed_edges"], res.payload["max_degree"]) == (
        removed_edges, max_degree)
    assert hashlib.sha256(
        res.payload["removed"].encode()).hexdigest()[:16] == digest
