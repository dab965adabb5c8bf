#!/usr/bin/env python3
"""Validate a Chrome trace_event JSON file emitted by hare::obs.

Checks that the file parses as JSON, that every event carries a known
phase with the fields chrome://tracing needs, and that duration events
are well formed:

  * "X" (complete) events need numeric ts and dur >= 0, plus pid/tid;
  * "B"/"E" (begin/end) events must stack-match per (pid, tid) track
    (hare::obs emits only "X" spans, so both counts are normally zero);
  * "i" (instant) and "M" (metadata) and "C" (counter) events are
    accepted; any other phase fails validation.

With --require-cats, the union of event categories must cover every
requested category — CI uses this to prove the trace contains spans from
all instrumented layers (planner, sim, switching; fault runs add the
"fault" category for replan spans and failure/recovery/cancellation
instant events).

With --require-names, the union of event names must cover every requested
name — CI uses this to prove that named spans actually landed in the
trace, not just their category: "planner.schedule" and "sim.run" for a
`schedule` run, "fault.event" instants and "fault.replan" spans for a
fault run.

Usage: scripts/validate_trace.py TRACE.json [--require-cats a,b,c]
                                            [--require-names n1,n2]
Exit status: 0 when valid, 1 otherwise.
"""

import argparse
import json
import sys

KNOWN_PHASES = {"X", "B", "E", "i", "M", "C"}


def fail(message):
    print(f"validate_trace: FAIL: {message}", file=sys.stderr)
    return 1


def validate(events, require_cats, require_names):
    errors = 0
    phase_counts = {}
    categories = set()
    names = set()
    open_stacks = {}  # (pid, tid) -> [names of open B events]

    for index, event in enumerate(events):
        where = f"event #{index}"
        if not isinstance(event, dict):
            errors += fail(f"{where} is not an object")
            continue
        phase = event.get("ph")
        if phase not in KNOWN_PHASES:
            errors += fail(f"{where} has unknown phase {phase!r}")
            continue
        phase_counts[phase] = phase_counts.get(phase, 0) + 1
        if "cat" in event:
            for cat in str(event["cat"]).split(","):
                categories.add(cat)
        if "name" in event:
            names.add(str(event["name"]))

        if "pid" not in event or "tid" not in event:
            errors += fail(f"{where} ({phase}) is missing pid/tid")
            continue
        track = (event["pid"], event["tid"])

        if phase == "M":
            continue  # metadata carries no timestamp
        ts = event.get("ts")
        if not isinstance(ts, (int, float)):
            errors += fail(f"{where} ({phase}) has non-numeric ts {ts!r}")
            continue

        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                errors += fail(f"{where} (X) has bad dur {dur!r}")
        elif phase == "B":
            open_stacks.setdefault(track, []).append(event.get("name"))
        elif phase == "E":
            stack = open_stacks.get(track, [])
            if not stack:
                errors += fail(f"{where} (E) closes nothing on track {track}")
            else:
                stack.pop()

    for track, stack in open_stacks.items():
        if stack:
            errors += fail(
                f"track {track} has {len(stack)} unclosed B event(s): {stack}"
            )

    missing = set(require_cats) - categories
    if missing:
        errors += fail(
            f"required categories missing from trace: {sorted(missing)} "
            f"(present: {sorted(categories)})"
        )
    missing_names = set(require_names) - names
    if missing_names:
        errors += fail(
            f"required event names missing from trace: "
            f"{sorted(missing_names)}"
        )

    summary = ", ".join(f"{k}={v}" for k, v in sorted(phase_counts.items()))
    print(
        f"validate_trace: {len(events)} events ({summary}); "
        f"categories: {sorted(categories)}"
    )
    return errors


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", help="Chrome trace_event JSON file")
    parser.add_argument(
        "--require-cats",
        default="",
        help="comma-separated categories that must appear in the trace",
    )
    parser.add_argument(
        "--require-names",
        default="",
        help="comma-separated event names that must appear in the trace",
    )
    args = parser.parse_args()

    try:
        with open(args.trace, encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        return fail(f"cannot load {args.trace}: {error}")

    if isinstance(data, dict):
        events = data.get("traceEvents")
        if not isinstance(events, list):
            return fail("top-level object has no traceEvents array")
    elif isinstance(data, list):
        events = data
    else:
        return fail("top level must be an object or an event array")

    if not events:
        return fail("trace contains no events")

    require_cats = [c for c in args.require_cats.split(",") if c]
    require_names = [n for n in args.require_names.split(",") if n]
    errors = validate(events, require_cats, require_names)
    if errors:
        print(f"validate_trace: {errors} error(s)", file=sys.stderr)
        return 1
    print("validate_trace: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
