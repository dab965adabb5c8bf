#!/usr/bin/env python3
"""Build and run the Hare benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
`perfbench` binary (and the library it links) into .bench_build/perfbench;
later runs only rebuild what changed. Build output goes to stderr. The
last line of stdout is the binary's JSON result, printed only after its
output checks pass. BENCHMARK.json is the one list of metric names and
units: a traced run's layers the workload bypasses are filled in as 0,
and a metric the file does not list, or lists with another unit, fails
the run. Any failure exits nonzero without a result line.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("testbed_lpcuts", "sharded_50k", "faults_diverse", "serve_bursty")
# Every thread pool perfbench creates is capped at this many workers.
WORKERS = 4
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    jobs = str(max(1, min(WORKERS, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out_dir, "--target", "perfbench", "-j", jobs],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def expected_units(trace):
    """Metric names and units BENCHMARK.json lists for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def complete_result(line, trace):
    """The binary's result with every listed metric, in listed order."""
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("unexpected result keys %s" % sorted(result))
    if result["correct"] is not True or result["attempted"] < 1:
        raise ValueError("run not correct or attempted nothing")
    units = expected_units(trace)
    got = result["metrics"]
    wrong = sorted(k for k, v in got.items() if units.get(k) != v["unit"])
    if wrong:
        raise ValueError("metrics not in BENCHMARK.json or with another "
                         "unit: %s" % wrong)
    missing = sorted(set(units) - set(got))
    if missing and not trace:
        raise ValueError("end-to-end metrics missing: %s" % missing)
    result["metrics"] = {name: got.get(name, {"value": 0.0, "unit": unit})
                         for name, unit in units.items()}
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    out_dir = build_dir()
    if not build(out_dir):
        return 1

    command = [os.path.join(out_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--spans", os.path.join(
            out_dir, "spans-%s-%d.json" % (args.workload, args.seed))]
    env = dict(os.environ, HARE_JOBS=str(WORKERS))
    env.pop("HARE_EXP_SERIAL", None)
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=sys.stderr, env=env, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print("perfbench: benchmark exited %d" % done.returncode,
              file=sys.stderr)
        return 1
    try:
        result = complete_result(lines[-1], args.trace == 1)
    except (ValueError, KeyError, TypeError) as e:
        print("perfbench: bad result: %s" % e, file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
