#!/usr/bin/env python3
"""Run-to-run steadiness of the benchmark's end-to-end metrics.

Runs the benchmark command from BENCHMARK.json once per seed on each
workload (untraced), then reports for every end-to-end metric its median,
first and third quartiles (``statistics.quantiles(values, n=4)``) and the
quartile spread as a share of the median, next to the metric's bound.

    python3 perfbench/steadiness.py --runs 10 --first-seed 100 \\
        [--workloads rank-agents,serve-mixed] [--out perfbench/baseline.json]

With ``--held-out SEED --against perfbench/baseline.json`` it instead runs
each workload once on a seed not used for the record and reports how far
each metric lies from the recorded median, against the metric's bound.

Run it from the repository root. The exit code is 1 when a spread (other
than that of setup_s) or a held-out distance exceeds its bound, or a run
fails its checks.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(argv, capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: checks failed\n{out.stdout[-2000:]}")
    return result


def held_out(bench, names, bounds, seed, against):
    with open(against) as f:
        record = json.load(f)["workloads"]
    ok = True
    for w in names:
        result = run_once(bench["command"], w, seed, bench["run_seconds"])
        for m, bound in bounds.items():
            value = result["metrics"][m]["value"]
            med = record[w][m]["median"]
            distance = abs(value - med) / med
            within = distance <= bound
            ok &= within
            print(f"{w:<16} {m:<12} seed {seed} value {value:<14.6g} recorded median {med:<14.6g} "
                  f"distance {distance:6.3f} bound {bound:.2f}{'' if within else '  OVER'}",
                  flush=True)
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=100)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--out", default="")
    ap.add_argument("--held-out", type=int)
    ap.add_argument("--against", default="perfbench/baseline.json")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    if args.held_out is not None:
        sys.exit(held_out(bench, names, bounds, args.held_out, args.against))
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    record = {"cores": os.cpu_count(), "runs": args.runs, "seeds": seeds,
              "run_seconds": bench["run_seconds"], "workloads": {}}
    ok = True
    for w in names:
        values = {m: [] for m in bounds}
        for seed in seeds:
            result = run_once(bench["command"], w, seed, bench["run_seconds"])
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
        rows = {}
        for m, v in values.items():
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            within = m == "setup_s" or spread <= bounds[m]
            ok &= within
            rows[m] = {"unit": units[m], "median": med, "q1": q1, "q3": q3,
                       "spread": spread, "bound": bounds[m]}
            print(f"{w:<16} {m:<12} median {med:<14.6g} q1 {q1:<14.6g} q3 {q3:<14.6g} "
                  f"spread {spread:6.3f} bound {bounds[m]:.2f}{'' if within else '  OVER'}",
                  flush=True)
        record["workloads"][w] = rows
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
