#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload train_skew --seeds 1 2 3 4 5 [--trace 1]

Run from the root of a checkout. For every workload and metric it prints
the median over the seeds, the inter-quartile range as a share of the
median (quartiles as `statistics.quantiles(values, n=4)` gives them),
the metric's bound from `BENCHMARK.json`, and whether the spread is
below a third of that bound. Raw results, with each run's notes from its
details file, go to `.bench_results/spread-<workload>-trace<t>.json`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stdout}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    with open(f".bench_results/{workload}-trace{trace}.json") as f:
        result["notes"] = json.load(f)["notes"]
    return result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", nargs="+", required=True)
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    os.makedirs(".bench_results", exist_ok=True)
    for w in args.workload:
        results = [run_once(w, s, seconds, args.trace) for s in args.seeds]
        with open(f".bench_results/spread-{w}-trace{args.trace}.json", "w") as f:
            json.dump({"seeds": args.seeds, "results": results}, f)
        bad = [r for r in results if not r["correct"] or r["failed"]]
        print(f"## {w}: {len(results)} runs, {len(bad)} incorrect")
        for name in results[0]["metrics"]:
            v = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med, med, med)
            share = (q3 - q1) / abs(med) if med else 0.0
            bound = bounds.get(name)
            verdict = "" if bound is None else ("ok" if share < bound / 3 else "WIDE")
            print(f"{name:44} median {med:14.6g}  iqr/median {share:7.4f}  "
                  f"bound {bound if bound is not None else '-':>5}  {verdict}")


if __name__ == "__main__":
    main()
