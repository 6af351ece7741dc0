#!/usr/bin/env python3
"""Check that the benchmark is steady: run workloads over several seeds and
report, per end-to-end metric, the median and the spread (the distance
between the first and third quartiles, as a share of the median) against
the metric's bound in BENCHMARK.json.

    python3 perfbench/spread.py [--seeds 10] [--first-seed 1] [--workloads a,b] [--median-of FILE]

Run it from the root of a source checkout. With --median-of, the medians are
also compared with those of an earlier report (a JSON file this script
wrote), the way a later change is judged against its parent. The report is
written to .bench_out/spread.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = [l for l in res.stdout.splitlines() if l.strip()]
    if res.returncode != 0 or not lines:
        sys.stderr.write(res.stderr[-2000:])
        raise SystemExit("%s seed %d failed with exit code %d" % (workload, seed, res.returncode))
    out = json.loads(lines[-1])
    if not out["correct"]:
        raise SystemExit("%s seed %d: wrong answers" % (workload, seed))
    return {k: v["value"] for k, v in out["metrics"].items()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--median-of", default="")
    args = ap.parse_args()
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    earlier = json.load(open(args.median_of)) if args.median_of else {}
    report = {}
    worst = 0.0
    for w in names:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            for k, v in run_once(w, seed, bench["run_seconds"]).items():
                values.setdefault(k, []).append(v)
            sys.stderr.write(".")
            sys.stderr.flush()
        sys.stderr.write("\n")
        report[w] = {}
        print("%s (%d seeds)" % (w, args.seeds))
        for k, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            share = spread / bounds[k]
            worst = max(worst, share)
            line = "  %-26s median %-12.6g spread %6.2f%%  bound %5.1f%%  (%.2f of bound)" % (
                k, med, 100 * spread, 100 * bounds[k], share)
            if k in earlier.get(w, {}):
                before = earlier[w][k]["median"]
                line += "  vs earlier median %+.2f%%" % (100 * (med - before) / before)
            print(line)
            report[w][k] = {"median": med, "spread": spread, "values": vs}
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_out", "spread.json"), "w") as f:
        json.dump(report, f, indent=1)
    print("largest spread, as a share of its bound: %.2f" % worst)


if __name__ == "__main__":
    main()
