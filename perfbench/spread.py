"""Repeat the benchmark over seeds and report each metric's spread.

    python3 perfbench/spread.py --workload exact --seeds 1-10 [--out FILE]

Runs `run.py` once per seed, one run after another, from the current
directory (the root of a checkout), with `run_seconds` from BENCHMARK.json.
For every metric it prints the median, the first and third quartiles
(`statistics.quantiles(values, n=4)`) and the spread: the distance between
the quartiles as a share of the median, next to the metric's bound.  With
`--out`, the runs' summary is written there as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds_from(text: str) -> list:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def summarize(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)
            if statistics.median(values) else 0.0,
            "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    runs = []
    for seed in seeds_from(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=300, check=True)
        lines = proc.stdout.strip().splitlines()
        result, jobs = json.loads(lines[-1]), json.loads(lines[-2])
        runs.append({"seed": seed, "result": result, "jobs": jobs})
        print(f"seed {seed}: correct={result['correct']} " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
            flush=True)
    metrics = {name: summarize([r["result"]["metrics"][name]["value"]
                                for r in runs])
               for name in runs[0]["result"]["metrics"]}
    job_times = {j["name"]: summarize([r["jobs"]["jobs"][k]["median_s"]
                                       for r in runs])
                 for k, j in enumerate(runs[0]["jobs"]["jobs"])}
    for name, s in metrics.items():
        bound = bounds.get(name)
        print(f"{name:32s} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
              f"q3 {s['q3']:.6g}  spread {s['spread']:.4f}"
              + (f"  bound {bound}" if bound is not None else ""))
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "trace": args.trace,
             "run_seconds": bench["run_seconds"], "metrics": metrics,
             "job_median_s": job_times,
             "job_status": {j["name"]: (j["status"], j["detail"])
                            for j in runs[-1]["jobs"]["jobs"]},
             "all_correct": all(r["result"]["correct"] for r in runs)},
            indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
