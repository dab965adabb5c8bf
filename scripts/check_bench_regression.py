#!/usr/bin/env python3
"""Gate performance results from the perf benches.

Reads the machine-readable JSON a perf bench emits and fails (exit 1) on a
regression. Five bench formats are understood, dispatched on the "bench"
field (an unknown one fails):

bench_sweep_scale (BENCH_sweep.json):
  * the parallel sweep diverged from the serial reference (bit-identity is
    a correctness contract, never waived);
  * the parallel-over-serial speedup fell below the floor — enforced only
    when the recorded run had >= 4 workers, since a 1-2 core container
    cannot demonstrate fan-out scaling (the ratio is measured in-process,
    so it holds across grid machines);
  * the 1-worker sweep fell below 0.95x of the serial reference — a
    1-worker engine must run inline on the calling thread, so this gate is
    machine-independent and enforced in full mode on any core count.

bench_shard_scale (BENCH_shard.json):
  * the parallel sharded plan is not bit-identical to the serial sharded
    plan, or a plan failed structural validation — correctness contracts,
    never waived, including in quick mode;
  * full mode: the incremental separator saved < 50% of the separation
    sort work across the lp_cuts grid;
  * full mode: the largest point's sharded-over-flat speedup fell below
    the floor — enforced only when the recorded run had >= 4 workers
    (same rationale as the sweep gate).

bench_fault (BENCH_fault.json):
  * the scripted fault scenario is bit-identical across repeated and
    pooled executions — a correctness contract, never waived;
  * scenario coverage: at least one machine failure, one recovery, one
    cancellation, and one exhausted-retry dead-letter actually happened;
  * every job is accounted for by exactly one outcome, the degradation
    ratio is positive and finite, and fragmentation lies in [0, 1].

bench_serve (BENCH_serve.json):
  * the served schedule is bit-identical across a serial re-run, pooled
    replicas, and sharded serial vs pooled — a correctness contract,
    never waived;
  * the LP stream actually planned through the LP path (lp_batches >= 1,
    every batch within the LP cap) — enforced in quick mode too;
  * full mode: sustained admission throughput stayed at or above the
    10k arrivals/s serving floor on the flat stream, and at or above the
    LP-path floor on the stream whose every batch is one LP block
    (quick grids are fixed-cost dominated, so both are skipped there).

bench_scale_100k (BENCH_scale.json):
  * the pooled sharded plan diverged from the serial one, or a plan failed
    structural validation — correctness contracts, never waived, including
    in quick mode;
  * any point's process peak RSS exceeded the memory ceiling, or the
    pooled sharded plan lost to the forced-serial plan by more than the
    slack — both enforced in quick mode too (the ceiling catches a return
    to dense per-job time storage; the plan-time ratio is in-process);
  * a six-figure point recorded zero cross-shard migrations — the
    delay-ranked move bundles are deterministic, so the count is
    machine-independent;
  * full mode: the grid never reached the six-figure (100k-job) point.

A baseline JSON missing an expected key fails with a clear message naming
the key(s) and the gate(s) that had to be skipped — never a bare KeyError
traceback. Numeric-floor failures print the observed value against the
floor key by key (see fail_floor), so the CI log names the exact number
that moved.

Quick mode (--quick, or a JSON produced with --quick) runs tiny grids
where fixed costs dominate, so only the determinism contracts are
enforced there.

Usage: scripts/check_bench_regression.py JSON... [--quick]
"""

import json
import sys

# Sweep-engine thresholds: the parallel fan-out must beat the serial
# reference by this much on a machine with enough cores to show it.
SWEEP_MIN_SPEEDUP = 3.0
SWEEP_MIN_WORKERS = 4  # below this, fan-out speedup is not demonstrable
# A 1-worker engine runs the cells inline on the calling thread, so it must
# track the serial loop within noise on any machine.
SWEEP_MIN_1WORKER_SPEEDUP = 0.95

# Sharded-planner thresholds: the two-level plan over the largest grid
# point must beat the flat fluid plan by this much (>= 4 workers), and the
# incremental separator must save at least half the separation sort work.
SHARD_MIN_SPEEDUP = 3.0
SHARD_MIN_WORKERS = 4
SHARD_MIN_RESORT_SAVINGS = 0.5

# Serving-loop floor: sustained arrivals/second through the full
# admit -> profile -> batch -> replan path. The bench workload clears this
# by an order of magnitude on a single core, so the floor holds on 1-2
# core CI runners; it is still skipped in quick mode, where the tiny
# stream is dominated by fixed costs.
SERVE_MIN_THROUGHPUT = 10000.0
# LP-path floor: arrivals/second when every batch is relaxed as its own
# small LP block. Measured at ~25k/s (RelWithDebInfo, 4-vCPU VM); the floor
# keeps 5x headroom for slower runners and still fails a return to a
# retained program that re-solves every earlier block (~1-2k/s there).
SERVE_LP_MIN_THROUGHPUT = 5000.0

# Scale-bench thresholds: the full grid must actually reach the six-figure
# point.
SCALE_SIX_FIGURE_JOBS = 100000
# Memory ceiling for any scale point (process peak RSS in MB). The interned
# time-table layout holds the six-figure point to a few hundred MB; the
# ceiling catches a silent return to dense per-job storage (13.8 GB at
# 100k x 8192 before the rework) long before the runner OOMs.
SCALE_MAX_RSS_MB = 5000.0
# The pooled sharded plan must not lose to the forced-serial plan. Both are
# best-of-N and interleaved in one process, so the ratio is stable across
# machines; 1.1x absorbs scheduler jitter on single-core runners where both
# paths execute the identical inline code.
SCALE_PARALLEL_SLACK = 1.1


def fail(msg):
    print(f"REGRESSION: {msg}")
    return 1


def fail_floor(tag, key, observed, floor, note=""):
    """Threshold failure that spells out the observed value against its
    floor, key by key, so a CI log names the exact number that moved
    instead of burying it in prose."""
    suffix = f" — {note}" if note else ""
    return fail(
        f"{tag}: {key} = {observed:.3f} vs floor {floor:.3f}{suffix}"
    )


def fail_ceiling(tag, key, observed, ceiling, note=""):
    """Threshold failure for values that must stay *under* a bound, printed
    observed-vs-ceiling just like fail_floor prints observed-vs-floor."""
    suffix = f" — {note}" if note else ""
    return fail(
        f"{tag}: {key} = {observed:.3f} vs ceiling {ceiling:.3f}{suffix}"
    )


def missing_keys(mapping, keys):
    """Expected keys absent from a baseline JSON object."""
    return [k for k in keys if k not in mapping]


def skip_missing(tag, absent, gates):
    """A truncated or hand-edited baseline must fail loudly with the exact
    keys at fault and the gates that could not run — never a bare
    KeyError traceback, and never a silent pass."""
    return fail(
        f"{tag}: baseline JSON missing expected key(s) "
        f"{', '.join(repr(k) for k in absent)} — skipped: {gates}"
    )


def check_sweep(data, quick, path):
    errors = 0
    if not data.get("deterministic", False):
        errors += fail(
            f"{path}: parallel sweep diverged from the serial reference"
        )
    if data.get("cells", 0) <= 0:
        errors += fail(f"{path}: sweep ran no cells")

    if not quick and "speedup_1worker" in data:
        one_worker = data["speedup_1worker"]
        if one_worker < SWEEP_MIN_1WORKER_SPEEDUP:
            errors += fail_floor(
                path, "speedup_1worker", one_worker,
                SWEEP_MIN_1WORKER_SPEEDUP,
                "the inline single-worker path regressed",
            )

    workers = data.get("workers", 1)
    if not quick and workers >= SWEEP_MIN_WORKERS:
        speedup = data.get("speedup", 0.0)
        if speedup < SWEEP_MIN_SPEEDUP:
            errors += fail_floor(
                path, "speedup", speedup, SWEEP_MIN_SPEEDUP,
                f"on {workers} workers",
            )
    elif not quick:
        print(
            f"note: {path} recorded {workers} worker(s); the "
            f"{SWEEP_MIN_SPEEDUP:.0f}x floor needs >= {SWEEP_MIN_WORKERS} "
            "(determinism still enforced)"
        )

    if errors:
        return errors
    mode = "quick (determinism only)" if quick else "full"
    print(
        f"OK: {data.get('cells', '?')} cells on {workers} worker(s) pass "
        f"the {mode} sweep gate in {path}"
    )
    return 0


def check_shard(data, quick, path):
    points = data.get("points", [])
    if not points:
        return fail(f"{path} contains no shard grid points")

    errors = 0
    for i, p in enumerate(points):
        absent = missing_keys(p, ("jobs", "gpus", "shards"))
        if absent:
            errors += skip_missing(
                f"{path} shard point {i}", absent, "all gates for this point"
            )
            continue
        tag = f"{p['jobs']}x{p['gpus']} ({p['shards']} shards)"
        if not p.get("merge_identical", False):
            errors += fail(
                f"{tag}: parallel sharded plan differs from the serial "
                "sharded plan (canonical-order merge broke)"
            )
        if not p.get("valid", False):
            errors += fail(f"{tag}: a plan failed structural validation")

    if not quick:
        savings = data.get("separation", {}).get("resort_savings", 0.0)
        if savings < SHARD_MIN_RESORT_SAVINGS:
            errors += fail_floor(
                path, "resort_savings", savings, SHARD_MIN_RESORT_SAVINGS,
                "incremental separation saved too little sort work",
            )
        sized = [p for p in points if "jobs" in p and "gpus" in p]
        largest = max(sized, key=lambda p: p["jobs"] * p["gpus"]) if sized else {}
        tag = f"{largest.get('jobs', '?')}x{largest.get('gpus', '?')}"
        if largest.get("workers", 1) >= SHARD_MIN_WORKERS:
            if "speedup_parallel" not in largest:
                errors += skip_missing(
                    tag, ["speedup_parallel"], "sharded-over-flat speedup gate"
                )
            elif largest["speedup_parallel"] < SHARD_MIN_SPEEDUP:
                errors += fail_floor(
                    tag, "speedup_parallel", largest["speedup_parallel"],
                    SHARD_MIN_SPEEDUP,
                    f"sharded-over-flat on {largest['workers']} workers",
                )
        else:
            print(
                f"note: {path} recorded {largest.get('workers', 1)} "
                f"worker(s); the {SHARD_MIN_SPEEDUP:.0f}x floor needs >= "
                f"{SHARD_MIN_WORKERS} (bit-identity and separation gates "
                "still enforced)"
            )

    if errors:
        return errors
    mode = "quick (determinism/validity)" if quick else "full"
    print(
        f"OK: {len(points)} shard points pass the {mode} shard gate in {path}"
    )
    return 0


def check_fault(data, quick, path):
    absent = missing_keys(
        data,
        (
            "deterministic",
            "machine_failures",
            "recoveries",
            "cancellations",
            "dead_letters",
            "jobs",
            "jobs_completed",
            "jobs_cancelled",
            "jobs_dead",
            "degradation_ratio",
            "fragmentation",
        ),
    )
    if absent:
        return skip_missing(path, absent, "all fault-scenario gates")

    errors = 0
    if not data["deterministic"]:
        errors += fail(
            f"{path}: fault run diverged across repeated/pooled executions "
            "(bit-identity is a correctness contract, never waived)"
        )
    # Scenario coverage: the bench scripts one failure+recovery, one
    # cancellation, and one exhausted-retry dead-letter; a run that lost
    # any of them is testing nothing.
    for key in ("machine_failures", "recoveries", "cancellations",
                "dead_letters"):
        if data[key] < 1:
            errors += fail(f"{path}: scenario recorded no {key}")
    accounted = (
        data["jobs_completed"] + data["jobs_cancelled"] + data["jobs_dead"]
    )
    if accounted != data["jobs"]:
        errors += fail(
            f"{path}: job outcomes do not account for every job "
            f"({accounted} of {data['jobs']})"
        )
    ratio = data["degradation_ratio"]
    if not (ratio > 0.0 and ratio == ratio and ratio != float("inf")):
        errors += fail(f"{path}: degradation ratio {ratio} is not a "
                       "positive finite number")
    if not 0.0 <= data["fragmentation"] <= 1.0:
        errors += fail(
            f"{path}: fragmentation {data['fragmentation']} outside [0, 1]"
        )

    if errors:
        return errors
    mode = "quick" if quick else "full"
    print(
        f"OK: fault scenario ({data['jobs_completed']} completed / "
        f"{data['jobs_cancelled']} cancelled / {data['jobs_dead']} dead, "
        f"degradation {ratio:.3f}) passes the {mode} fault gate in {path}"
    )
    return 0


def check_serve(data, quick, path):
    absent = missing_keys(
        data,
        (
            "deterministic",
            "arrivals",
            "batches",
            "throughput_arrivals_per_s",
            "lp_batches",
            "lp_throughput_arrivals_per_s",
        ),
    )
    if absent:
        return skip_missing(path, absent, "all serve gates")

    errors = 0
    if not data["deterministic"]:
        errors += fail(
            f"{path}: served schedule diverged across serial/pooled/"
            "sharded executions (bit-identity is a correctness contract, "
            "never waived)"
        )
    if data["arrivals"] < 1 or data["batches"] < 1:
        errors += fail(f"{path}: serve run admitted or planned nothing")
    if data["lp_batches"] < 1:
        errors += fail(
            f"{path}: the LP stream planned no batch through the LP path"
        )
    throughput = data["throughput_arrivals_per_s"]
    lp_throughput = data["lp_throughput_arrivals_per_s"]
    if not quick and throughput < SERVE_MIN_THROUGHPUT:
        errors += fail_floor(
            path, "throughput_arrivals_per_s", throughput,
            SERVE_MIN_THROUGHPUT, "sustained serving throughput",
        )
    if not quick and lp_throughput < SERVE_LP_MIN_THROUGHPUT:
        errors += fail_floor(
            path, "lp_throughput_arrivals_per_s", lp_throughput,
            SERVE_LP_MIN_THROUGHPUT, "LP-path serving throughput",
        )

    if errors:
        return errors
    mode = "quick (determinism/LP path)" if quick else "full"
    print(
        f"OK: {data['arrivals']} arrivals in {data['batches']} batches "
        f"({throughput:.0f}/s), {data['lp_batches']} LP batches "
        f"({lp_throughput:.0f}/s) pass the {mode} serve gate in {path}"
    )
    return 0


def check_scale(data, quick, path):
    points = data.get("scale_points", [])
    if not points:
        return fail(f"{path} contains no scale points")

    errors = 0
    for i, p in enumerate(points):
        absent = missing_keys(p, ("jobs", "gpus", "shards"))
        if absent:
            errors += skip_missing(
                f"{path} scale point {i}", absent, "all gates for this point"
            )
            continue
        tag = f"{p['jobs']}x{p['gpus']} ({p['shards']} shards)"
        if not p.get("merge_identical", False):
            errors += fail(
                f"{tag}: pooled sharded plan differs from the serial "
                "sharded plan (canonical-order merge broke)"
            )
        if not p.get("valid", False):
            errors += fail(f"{tag}: the plan failed structural validation")
        if p.get("tasks", 0) < 1:
            errors += fail(f"{tag}: the streamed trace produced no tasks")
        if "peak_rss_mb" not in p:
            errors += skip_missing(tag, ["peak_rss_mb"], "peak RSS ceiling")
        elif p["peak_rss_mb"] > SCALE_MAX_RSS_MB:
            errors += fail_ceiling(
                tag, "peak_rss_mb", p["peak_rss_mb"], SCALE_MAX_RSS_MB,
                "dense per-job time storage is back?",
            )
        if p.get("jobs", 0) >= SCALE_SIX_FIGURE_JOBS:
            if "migrated_jobs" not in p:
                errors += skip_missing(
                    tag, ["migrated_jobs"], "six-figure migration gate"
                )
            elif p["migrated_jobs"] < 1:
                errors += fail_floor(
                    tag, "migrated_jobs", float(p["migrated_jobs"]), 1.0,
                    "cross-shard migration fired zero moves at the "
                    "six-figure point (the objective-gate regression is "
                    "back?)",
                )
        plan_keys = missing_keys(p, ("plan_serial_ms", "plan_parallel_ms"))
        if plan_keys:
            errors += skip_missing(tag, plan_keys, "pooled-vs-serial gate")
        elif (
            p["plan_parallel_ms"]
            > p["plan_serial_ms"] * SCALE_PARALLEL_SLACK
        ):
            errors += fail_ceiling(
                tag, "plan_parallel_ms", p["plan_parallel_ms"],
                p["plan_serial_ms"] * SCALE_PARALLEL_SLACK,
                "the pooled sharded plan lost to the forced-serial plan",
            )

    if not quick:
        sized = [p for p in points if "jobs" in p]
        largest_jobs = max((p["jobs"] for p in sized), default=0)
        if largest_jobs < SCALE_SIX_FIGURE_JOBS:
            errors += fail_floor(
                path, "largest jobs", largest_jobs, SCALE_SIX_FIGURE_JOBS,
                "the full grid never reached the six-figure point",
            )

    if errors:
        return errors
    mode = "quick (identity/validity)" if quick else "full"
    print(f"OK: {len(points)} scale points pass the {mode} scale gate in {path}")
    return 0


def check_file(path, quick):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return fail(f"cannot read {path}: {exc}")
    quick = quick or bool(data.get("quick", False))
    bench = data.get("bench")
    if bench == "bench_sweep_scale":
        return check_sweep(data, quick, path)
    if bench == "bench_shard_scale":
        return check_shard(data, quick, path)
    if bench == "bench_fault":
        return check_fault(data, quick, path)
    if bench == "bench_serve":
        return check_serve(data, quick, path)
    if bench == "bench_scale_100k":
        return check_scale(data, quick, path)
    return fail(f"{path}: unknown bench {bench!r}")


def main(argv):
    paths = []
    quick = False
    for arg in argv[1:]:
        if arg == "--quick":
            quick = True
        elif arg.startswith("-"):
            print(__doc__)
            return 2
        else:
            paths.append(arg)
    if not paths:
        print(__doc__)
        return 2

    errors = sum(check_file(path, quick) for path in paths)
    if errors:
        print(f"{errors} regression(s)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
