"""decomplab benchmark: one workload, closed loop, one client.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 30 --trace 0

Run it from the root of a decomplab checkout; it imports the program from
`src/` there and nowhere else.  The process runs the workload's jobs one
after another, single-threaded, pass after pass until `--seconds` have gone
(at least two passes).  A job counts as answered only after the benchmark's
own checks accept its output.  The last line of standard output is one JSON
object: the end-to-end metrics with `--trace 0`; with `--trace 1`, passes
alternate untraced and traced and the per-layer metrics come from the traced
ones.  The line before it lists every job with its status and median time.
End-to-end times are given in units of a fixed reference task timed before
every job (`reference_seconds`), which cancels most of a shared host's
speed drift.

Counts that must repeat exactly across the passes of one seed (answered and
failed jobs, decided search nodes, greedy leftovers, cover-down residue,
enumerated copies) are compared; any difference, any failed job, or a traced
pass whose self times do not add up to its wall time makes `correct` false.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
import types
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import jobs as workloads
import spans
from checks import ANSWERED, FAILED

SETUP_RUNS = 3          # set-up is measured this often per run; median kept
MIN_PASSES = 2          # counts are compared across passes, so at least two

END_TO_END = {
    "setup_s": "s",
    "wall_ref": "ref",
    "slowest_job_ref": "ref",
    "answered_ratio": "ratio",
    "honest_ratio": "ratio",
    "peak_rss_mb": "MB",
}

# name -> (unit, the end-to-end metric and workload it should move)
PER_LAYER = {
    "graphs.build_s": ("s", "wall_ref on large-host"),
    "graphio.parse_s": ("s", "wall_ref on large-host"),
    "graphio.parse_edges_per_s": ("1/s", "wall_ref on large-host"),
    "graphio.serialize_s": ("s", "wall_ref on large-host"),
    "embeddings.enumerate_s": ("s", "wall_ref, slowest_job_ref on exact"),
    "embeddings.copies_per_s": ("1/s", "wall_ref, slowest_job_ref on exact"),
    "embeddings.copies": ("count", "none: must never change"),
    "embeddings.pinned_calls": ("count", "wall_ref on large-host"),
    "embeddings.pinned_s": ("s", "wall_ref on large-host"),
    "embeddings.pinned_hit_ratio": ("ratio", "wall_ref on large-host"),
    "solver.candidates_s": ("s", "wall_ref on exact"),
    "solver.search_s": ("s", "wall_ref on exact"),
    "solver.search_nodes": ("count", "wall_ref on exact"),
    "solver.budget_nodes_per_s": ("1/s", "answered_ratio on exact"),
    "solver.verify_s": ("s", "wall_ref on large-host"),
    "solver.verify_copies_per_s": ("1/s", "wall_ref on large-host"),
    "solver.greedy_s": ("s", "wall_ref on large-host"),
    "solver.greedy_leftover_edges": ("count", "none: quality, no change"),
    "solver.fractional_build_s": ("s", "wall_ref on fractional"),
    "lp.rational_s": ("s", "wall_ref, slowest_job_ref on fractional"),
    "lp.float_s": ("s", "wall_ref on fractional"),
    "lp.cells": ("count", "peak_rss_mb on fractional"),
    "lp.refused": ("count", "answered_ratio on fractional"),
    "divisibility.check_s": ("s", "wall_ref on exact"),
    "extremal.generate_s": ("s", "wall_ref on exact"),
    "extremal.check_s": ("s", "wall_ref on exact"),
    "gadgets.build_s": ("s", "wall_ref on large-host"),
    "gadgets.verify_s": ("s", "wall_ref on large-host"),
    "gadgets.vertices": ("count", "wall_ref on large-host"),
    "pipeline.vortex_s": ("s", "wall_ref on large-host"),
    "pipeline.cover_down_s": ("s", "wall_ref on large-host"),
    "pipeline.outside_residue": ("count", "answered_ratio on large-host"),
    "bench.self_s": ("s", "none: the benchmark's own time in a traced pass"),
    "trace.wall_s": ("s", "none: traced pass time; the self times sum to it"),
    "trace.overhead_ratio": ("ratio", "none: traced over untraced wall_ref"),
    "run.wall_s": ("s", "none: wall_ref in seconds, untraced passes"),
    "run.slowest_job_s": ("s", "none: slowest_job_ref in seconds"),
    "run.reference_s": ("s", "none: the reference task's time, host speed"),
}


def setup(root: Path, workload: str, seed: int):
    """Import the program, make the workload's inputs and warm the lazy
    scipy/HiGHS import once.  Returns (seconds, program namespace, jobs)."""
    t0 = time.perf_counter()
    src = root / "src"
    sys.path.insert(0, str(src))
    import decomplab
    from decomplab import (errors, extremal, gadgets, graphio, graphs, lp,
                           pipeline, solver)
    if Path(decomplab.__file__).resolve().parent != (src / "decomplab").resolve():
        raise SystemExit(f"decomplab imported from {decomplab.__file__}, "
                         f"not from {src}")
    dl = types.SimpleNamespace(errors=errors, extremal=extremal,
                               gadgets=gadgets, graphio=graphio, graphs=graphs,
                               pipeline=pipeline, solver=solver)
    job_list = workloads.WORKLOADS[workload](seed)
    lp.solve_equalities_box_float([[1.0]], [1.0])
    return time.perf_counter() - t0, dl, job_list


def reference_seconds() -> float:
    """Time of a fixed pure-Python task: tuple and set churn, integer
    arithmetic and Fraction sums, 20 to 35 ms on a 2-vCPU x86-64 host.

    A shared host's speed drifts by tens of percent over minutes, and every
    job slows with it.  The same drift slows this task, so a job's time
    divided by it is close to constant where the raw time is not.
    """
    t0 = time.perf_counter()
    seen = set()
    for i in range(30000):
        seen.add((i % 97, i * 7 % 101, i))
    acc = 0
    for i in range(200000):
        acc += i * i % 7
    total = Fraction(0)
    for i in range(1, 300):
        total += Fraction(1, i)
    return time.perf_counter() - t0


def run_pass(dl, job_list, tracer=None):
    """One pass over the jobs; only `job.run` is timed.  The reference task
    runs, untimed and untraced, before each job."""
    gc.collect()
    times, outcomes, refs = [], [], []
    for job in job_list:
        refs.append(reference_seconds())
        if tracer is not None:
            tracer.begin_job()
        t0 = time.perf_counter()
        try:
            result, error = job.run(dl), None
        except Exception:
            result, error = None, traceback.format_exc(limit=-1).strip()
        seconds = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_job(seconds)
        if error is None:
            try:
                outcome = job.check(result)
            except Exception:
                error = "check raised " + traceback.format_exc(limit=-1).strip()
        if error is not None:
            outcome = workloads.Outcome(FAILED, error.splitlines()[-1])
        times.append(seconds)
        outcomes.append(outcome)
    return times, outcomes, refs


def pass_counts(outcomes) -> Counter:
    """Statuses and job counts of one pass; these must repeat exactly."""
    counts = Counter(o.status for o in outcomes)
    for o in outcomes:
        counts.update(o.counts)
    return counts


def layer_metrics(tracer: spans.Tracer, wall: float) -> dict:
    s, c = tracer.self_s, tracer.counts

    def rate(num, den):
        return num / den if den > 0 else 0.0

    return {
        "graphs.build_s": s["graphs.build"],
        "graphio.parse_s": (s["graphio.parse_edge_list"]
                            + s["graphio.parse_certificate"]),
        "graphio.parse_edges_per_s": rate(c["graphio.parsed_edges"],
                                          s["graphio.parse_edge_list"]),
        "graphio.serialize_s": s["graphio.serialize"],
        "embeddings.enumerate_s": s["embeddings.enumerate"],
        "embeddings.copies_per_s": rate(c["embeddings.copies"],
                                        s["embeddings.enumerate"]),
        "embeddings.copies": c["embeddings.copies"],
        "embeddings.pinned_calls": c["embeddings.pinned_calls"],
        "embeddings.pinned_s": s["embeddings.pinned"],
        "embeddings.pinned_hit_ratio": rate(c["embeddings.pinned_hits"],
                                            c["embeddings.pinned_calls"]),
        "solver.candidates_s": s["solver.candidates"],
        "solver.search_s": s["solver.search"],
        "solver.search_nodes": c["solver.search_nodes"],
        "solver.budget_nodes_per_s": rate(c["solver.budget_nodes"],
                                          c["solver.budget_s"]),
        "solver.verify_s": s["solver.verify"],
        "solver.verify_copies_per_s": rate(c["solver.verify_copies"],
                                           s["solver.verify"]),
        "solver.greedy_s": s["solver.greedy"],
        "solver.greedy_leftover_edges": c["solver.greedy_leftover_edges"],
        "solver.fractional_build_s": s["solver.fractional_build"],
        "lp.rational_s": s["lp.rational"],
        "lp.float_s": s["lp.float"],
        "lp.cells": c["lp.cells"],
        "lp.refused": c["lp.refused"],
        "divisibility.check_s": s["divisibility.check"],
        "extremal.generate_s": s["extremal.generate"],
        "extremal.check_s": s["extremal.check"],
        "gadgets.build_s": s["gadgets.build"],
        "gadgets.verify_s": s["gadgets.verify"],
        "gadgets.vertices": c["gadgets.vertices"],
        "pipeline.vortex_s": s["pipeline.vortex"],
        "pipeline.cover_down_s": s["pipeline.cover_down"],
        "pipeline.outside_residue": c["pipeline.outside_residue"],
        "bench.self_s": tracer.bench_self_s,
        "trace.wall_s": wall,
    }


def measure_setups(root: Path, args, first: float) -> list:
    """The in-process set-up plus SETUP_RUNS - 1 more in fresh processes,
    one after another."""
    out = [first]
    for _ in range(SETUP_RUNS - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=root, capture_output=True, text=True, timeout=150, check=True)
        out.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return out


@dataclass
class Pass:
    traced: bool
    times: list             # seconds per job, program calls only
    outcomes: list          # Outcome per job
    refs: list              # reference_seconds() before each job
    layers: dict | None     # per-layer metrics of a traced pass


def run_passes(dl, job_list, seconds: float, trace: bool):
    """Passes until `seconds` have gone, alternating untraced and traced
    ones when tracing.  Returns (passes, problems found on the way)."""
    tracer = spans.Tracer()
    passes, problems = [], []
    start = now = time.perf_counter()
    last_pass = 0.0
    # a pass starts only if it should end no more than half a pass late
    while len(passes) < MIN_PASSES or now - start + last_pass / 2 < seconds:
        if spans.wrapped_bindings():
            problems.append("a span wrapper was left installed")
        if trace and len(passes) % 2 == 1:
            tracer.reset()
            with tracer.installed():
                times, outcomes, refs = run_pass(dl, job_list, tracer)
            wall = sum(times)
            accounted = sum(tracer.self_s.values()) + tracer.bench_self_s
            if abs(accounted - wall) > 1e-6 * len(times):
                problems.append(f"traced self times sum to {accounted}, "
                                f"wall is {wall}")
            passes.append(Pass(True, times, outcomes, refs,
                               layer_metrics(tracer, wall)))
        else:
            passes.append(Pass(False, *run_pass(dl, job_list), None))
        last_pass, now = time.perf_counter() - now, time.perf_counter()
    if spans.wrapped_bindings():
        problems.append("a span wrapper was left installed")

    first = pass_counts(passes[0].outcomes)
    for p in passes[1:]:
        if pass_counts(p.outcomes) != first:
            problems.append(f"counts differ across passes: {first} vs "
                            f"{pass_counts(p.outcomes)}")
    copies = {p.layers["embeddings.copies"] for p in passes if p.traced}
    if len(copies) > 1:
        problems.append(f"embeddings.copies differs: {sorted(copies)}")
    return passes, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="measure one set-up, print it and exit")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "decomplab" / "__init__.py").is_file():
        print("run.py: no decomplab source at src/decomplab under "
              f"{root}; run it from the root of a checkout", file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

    setup_s, dl, job_list = setup(root, args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    setups = [] if args.trace else measure_setups(root, args, setup_s)
    passes, problems = run_passes(dl, job_list, args.seconds, bool(args.trace))

    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    outcomes = [o for p in passes for o in p.outcomes]
    attempted = len(outcomes)
    failed = sum(o.status == FAILED for o in outcomes)
    answered = sum(o.status == ANSWERED for o in outcomes)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "passes": len(untraced), "traced_passes": len(traced),
        "problems": problems,
        "jobs": [{"name": job.name,
                  "status": "/".join(sorted({p.outcomes[k].status
                                             for p in passes})),
                  "detail": passes[-1].outcomes[k].detail,
                  "median_s": statistics.median(p.times[k] for p in untraced)}
                 for k, job in enumerate(job_list)]}))

    def median(f, ps):
        return statistics.median(f(p) for p in ps)

    def reference(ps):
        return statistics.median(r for p in ps for r in p.refs)

    wall_s = median(lambda p: sum(p.times), untraced)
    slowest_s = median(lambda p: max(p.times), untraced)
    if args.trace:
        values = {name: median(lambda p: p.layers[name], traced)
                  for name in PER_LAYER if name in traced[0].layers}
        values["trace.overhead_ratio"] = (
            values["trace.wall_s"] / reference(traced)
            / (wall_s / reference(untraced)))
        values["run.wall_s"] = wall_s
        values["run.slowest_job_s"] = slowest_s
        values["run.reference_s"] = reference(untraced)
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_ref": wall_s / reference(untraced),
            "slowest_job_ref": slowest_s / reference(untraced),
            "answered_ratio": answered / attempted,
            "honest_ratio": 1 - failed / attempted,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    print(json.dumps({"correct": failed == 0 and not problems,
                      "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": values[name], "unit": unit}
                                  for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
