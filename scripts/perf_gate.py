#!/usr/bin/env python3
"""Perf gate: compare one bench report with its entry in the baseline.

Usage: perf_gate.py BASELINE.json REPORT.json

The report schema and the gate rules are in docs/benchmarks.md.
Exit status: 0 = passed, 1 = a gate failed, 2 = unreadable input.
"""

import json
import sys


def passes(check):
    if isinstance(check, bool):
        return check
    value = check["value"]
    return check.get("min", value) <= value <= check.get("max", value)


def within_band(spec, base):
    """Whether a value sits inside its band around the baseline, and the
    comparison as text."""
    value, tolerance = spec["value"], spec["tolerance"]
    if spec["better"] == "higher":
        limit = base * (1.0 - tolerance)
        ok, op = value >= limit, ">="
    else:
        limit = base * (1.0 + tolerance)
        ok, op = value <= limit, "<="
    return ok, f"{value:.6g} (baseline {base:.6g}, {op} {limit:.6g})"


def differences(run, base, section):
    ours, theirs = run.get(section, {}), base.get(section, {})
    return [f"{section} {key} is {ours.get(key)} here but the baseline was "
            f"recorded at {theirs.get(key)}"
            for key in sorted(set(ours) | set(theirs))
            if ours.get(key) != theirs.get(key)]


def gate(base, run):
    failures = 0

    def fail(msg):
        nonlocal failures
        print(f"FAIL: {msg}")
        failures += 1

    for msg in differences(run, base, "config"):
        fail(f"{msg} — re-record the baseline for this configuration")
    if failures:
        return failures

    for name, check in sorted(run.get("checks", {}).items()):
        if passes(check):
            print(f"{name} {json.dumps(check)} ok")
        else:
            fail(f"check {name} {json.dumps(check)}")

    host = differences(run, base, "host")
    for msg in host:
        print(f"WARN: {msg} — baseline comparisons skipped")
    if host:
        return failures

    checks = run.get("checks", {})
    for name in sorted(set(base.get("checks", [])) - set(checks)):
        fail(f"check {name} missing from this run")
    values, base_values = run.get("values", {}), base.get("values", {})
    for name in sorted(set(values) | set(base_values)):
        if name not in values:
            fail(f"{name} missing from this run")
            continue
        if name not in base_values:
            fail(f"{name} has no baseline — re-record the baseline")
            continue
        ok, text = within_band(values[name], base_values[name])
        if ok:
            print(f"{name} {text} ok")
        elif values[name]["miss"] == "fails":
            fail(f"{name} {text}")
        else:
            print(f"WARN: {name} {text} — cross-host number, warns only")
    return failures


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip())
        return 2
    try:
        with open(argv[2], encoding="utf-8") as f:
            run = json.load(f)
        with open(argv[1], encoding="utf-8") as f:
            base = json.load(f)["benches"][run["bench"]]
        failures = gate(base, run)
    except (OSError, ValueError, LookupError, TypeError, AttributeError) as e:
        print(f"perf gate: unreadable input: {type(e).__name__}: {e}")
        return 2
    verdict = f"{failures} failure(s)" if failures else "all checks passed"
    print(f"perf gate [{run['bench']}]: {verdict}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
