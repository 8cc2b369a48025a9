#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

From the root of a checkout:

    python3 perfbench/spread.py --workloads dense small_n --seeds 1 2 3 4 5
    python3 perfbench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 --baseline perfbench/baseline.json

For every workload and end-to-end metric it prints the median, the quartiles
(statistics.quantiles, n=4), and the spread (Q3 - Q1) / median against the
metric's bound from BENCHMARK.json.  Runs go one at a time, so they do not
compete for the machine.  With --baseline the per-workload summaries and one
traced run per workload are written to that file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds, trace):
    """Result object (last stdout line) and environment record (first line) of one run."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1]), json.loads(lines[0])["environment"]


def summarize(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else float("inf"),
            "values": values}


def main(argv=None) -> int:
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--baseline", default=None, help="write summaries and traced runs here")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"run_seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    steady = True
    for workload in args.workloads:
        runs = [run_once(workload, seed, args.seconds, 0)[0] for seed in args.seeds]
        rows = {}
        for name, bound in bounds.items():
            s = summarize([r["metrics"][name]["value"] for r in runs])
            s["bound"] = bound
            rows[name] = s
            flag = "ok" if s["spread"] < bound / 3 or name == "setup_s" else "WIDE"
            steady &= flag == "ok"
            print(f"{workload:>12} {name:<14} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f} (bound {bound}) {flag}", flush=True)
        entry = {"end_to_end": rows, "attempted": [r["attempted"] for r in runs],
                 "failed": [r["failed"] for r in runs]}
        if args.baseline:
            traced, report["environment"] = run_once(workload, args.seeds[0], args.seconds, 1)
            entry["per_layer_seed"] = args.seeds[0]
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        report["workloads"][workload] = entry
    if args.baseline:
        with open(args.baseline, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
