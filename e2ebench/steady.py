#!/usr/bin/env python3
"""Steadiness check for the end-to-end benchmark.

Runs every workload N times, interleaving the workloads (w1, w2, w3, w1,
...) and giving each run its own seed, then prints for each metric the
median, the quartiles, the inter-quartile range and the max-min range as
shares of the median. Beside them it prints the inter-quartile spread of
the uncalibrated ("raw") times, which the runs print on their `raw` line.

    python3 e2ebench/steady.py --runs 10
    python3 e2ebench/steady.py --runs 5 --workloads report_scan --first-seed 11

Run it from the repository root. The benchmark command and the run length
come from BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(args, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    raw = next((json.loads(l[4:]) for l in lines if l.startswith("raw ")), {})
    return json.loads(lines[-1]), raw


def spread(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    iqr = (q3 - q1) / med if med else float("nan")
    rng = (max(values) - min(values)) / med if med else float("nan")
    return med, q1, q3, iqr, rng


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads")
    ap.add_argument("--first-seed", type=int, default=1)
    opts = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = (opts.workloads.split(",") if opts.workloads
                 else [w["name"] for w in bench["workloads"]])
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    results = {w: [] for w in workloads}
    raws = {w: [] for w in workloads}
    failures = {w: [] for w in workloads}
    for i in range(opts.runs):
        for w in workloads:
            seed = opts.first_seed + i
            res, raw = run_once(bench["command"], w, seed, seconds)
            results[w].append(res["metrics"])
            raws[w].append(raw)
            failures[w].append((res["failed"], res["attempted"], res["correct"]))
            print(f"run {i + 1}/{opts.runs} {w} seed {seed}: "
                  f"correct={res['correct']} failed={res['failed']}/{res['attempted']}",
                  file=sys.stderr, flush=True)

    print(f"{opts.runs} runs per workload, {seconds} s each, seeds "
          f"{opts.first_seed}-{opts.first_seed + opts.runs - 1}")
    for w in workloads:
        print(f"\n== {w} ==  failed/attempted per run: "
              + " ".join(f"{f}/{a}" for f, a, _ in failures[w]))
        print(f"{'metric':<26}{'median':>14}{'q1':>14}{'q3':>14}"
              f"{'iqr/med':>9}{'range/med':>10}{'raw iqr':>9}{'bound':>7}")
        for name in results[w][0]:
            vals = [m[name]["value"] for m in results[w]]
            med, q1, q3, iqr, rng = spread(vals)
            raw_vals = [r[name]["value"] for r in raws[w] if name in r]
            raw_iqr = spread(raw_vals)[3] if len(raw_vals) == len(vals) else float("nan")
            bound = bounds.get(name)
            mark = "" if bound is None or iqr < bound / 3 else "  <-- above bound/3"
            print(f"{name:<26}{med:>14.3f}{q1:>14.3f}{q3:>14.3f}"
                  f"{iqr:>9.3f}{rng:>10.3f}{raw_iqr:>9.3f}"
                  f"{'' if bound is None else bound:>7}{mark}")


if __name__ == "__main__":
    main()
