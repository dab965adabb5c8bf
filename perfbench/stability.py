#!/usr/bin/env python3
"""Run-to-run stability of the benchmark's end-to-end metrics.

    python3 perfbench/stability.py [--runs 10] [--sets 2] [--workloads a,b]

Runs every workload --runs times per set, each run with its own seed,
alternating the workload order from run to run so slow drifts of the host
hit every workload alike. For each workload and end-to-end metric it prints
the median, the quartiles (statistics.quantiles, n=4), the interquartile
spread as a share of the median, and the max-min range as a share of the
median, next to the metric's bound from BENCHMARK.json. With two sets it
also prints the second set's median and spread and how far its median
moved from the first's, in the metric's worse direction. A metric passes
when every set's spread and the median shift stay within its bound; the
tool also flags spreads above a third of the bound.
Run from the repository root; exits 1 when a run fails or a check does
not hold.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Run i of set s uses seed SEED_BASE + 100 s + i: every run its own seed,
# none of them the default (1) or held-out (7919) seed.
SEED_BASE = 1000


def run_once(workload, seed, seconds):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d exited %d"
                           % (workload, seed, done.returncode))
    return {k: v["value"] for k, v in json.loads(lines[-1])["metrics"].items()}


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    scale = abs(median) if median else 1.0
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / scale,
            "range": (max(values) - min(values)) / scale}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2, choices=(1, 2))
    parser.add_argument("--workloads", default="")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = spec["end_to_end"]
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    seconds = spec["run_seconds"]

    # values[set][workload][metric] = [one value per run]
    values = [{w: {m["name"]: [] for m in metrics} for w in workloads}
              for _ in range(args.sets)]
    started = time.time()
    for s in range(args.sets):
        for i in range(args.runs):
            order = workloads if i % 2 == 0 else workloads[::-1]
            seed = SEED_BASE + 100 * s + i
            for w in order:
                result = run_once(w, seed, seconds)
                for m in metrics:
                    values[s][w][m["name"]].append(result[m["name"]])
                print("set %d run %d %s seed %d done (%.0f s)"
                      % (s + 1, i + 1, w, seed, time.time() - started),
                      file=sys.stderr, flush=True)

    ok = True
    header = ("%-15s %-16s %12s %12s %12s %7s %7s %6s" %
              ("workload", "metric", "median", "q1", "q3", "spread",
               "range", "bound"))
    if args.sets == 2:
        header += " %12s %7s %7s" % ("median(2)", "spread2", "shift")
    print(header)
    for w in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            sets = [summarize(values[s][w][name]) for s in range(args.sets)]
            first = sets[0]
            widest = max(x["spread"] for x in sets)
            flag = ""
            if widest > bound:
                flag, ok = " SPREAD>BOUND", False
            elif widest > bound / 3:
                flag = " spread>bound/3"
            line = ("%-15s %-16s %12.6g %12.6g %12.6g %7.3f %7.3f %6.2f" %
                    (w, name, first["median"], first["q1"], first["q3"],
                     first["spread"], first["range"], bound))
            if args.sets == 2:
                second = sets[1]
                base = abs(first["median"]) or 1.0
                worse = second["median"] - first["median"]
                if m["better"] == "higher":
                    worse = -worse
                shift = worse / base
                line += " %12.6g %7.3f %7.3f" % (second["median"],
                                                 second["spread"], shift)
                if shift > bound:
                    flag, ok = flag + " SHIFT>BOUND", False
            print(line + flag)
    return 0 if ok else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except RuntimeError as e:
        print("stability: %s" % e, file=sys.stderr)
        sys.exit(1)
