#!/usr/bin/env python3
"""scripts/perf_gate.py on small inline reports: a clean pass, each rule
failing on its own, a host mismatch that skips the baseline comparisons, a
warn-only miss that passes, and unreadable input that exits 2."""

import copy
import json
import pathlib
import subprocess
import sys
import tempfile

GATE = pathlib.Path(__file__).resolve().parent.parent / "scripts" / \
    "perf_gate.py"

BASELINE = {"benches": {"bench_x": {
    "config": {"batch": 8},
    "host": {"isa": "vnni"},
    "checks": ["invariant", "floor", "cap"],
    "values": {"speedup": 10.0, "p99_ms": 100.0, "dps": 1000.0},
}}}

REPORT = {
    "bench": "bench_x",
    "config": {"batch": 8},
    "host": {"isa": "vnni"},
    "checks": {"invariant": True,
               "floor": {"value": 3.0, "min": 2.0},
               "cap": {"value": 1.0, "max": 2.5}},
    "values": {
        "speedup": {"value": 10.0, "better": "higher", "miss": "fails",
                    "tolerance": 0.25},
        "p99_ms": {"value": 100.0, "better": "lower", "miss": "fails",
                   "tolerance": 0.25},
        "dps": {"value": 1000.0, "better": "higher", "miss": "warns",
                "tolerance": 0.25},
    },
}


def variant(*edits):
    """REPORT with (section, key, field, value) edits; value None deletes
    the entry, field None replaces it whole."""
    report = copy.deepcopy(REPORT)
    for section, key, field, value in edits:
        if value is None:
            del report[section][key]
        elif field is None:
            report[section][key] = value
        else:
            report[section][key][field] = value
    return report


# (name, report or raw text, expected exit status, text the output names)
CASES = [
    ("clean pass", REPORT, 0, "all checks passed"),
    ("config mismatch", variant(("config", "batch", None, 16)), 1,
     "FAIL: config batch"),
    ("boolean check false", variant(("checks", "invariant", None, False)),
     1, "FAIL: check invariant"),
    ("check below its min", variant(("checks", "floor", "value", 1.9)), 1,
     "FAIL: check floor"),
    ("check above its max", variant(("checks", "cap", "value", 2.6)), 1,
     "FAIL: check cap"),
    ("check missing from the run", variant(("checks", "floor", None, None)),
     1, "FAIL: check floor missing"),
    ("higher-better value below its band",
     variant(("values", "speedup", "value", 7.4)), 1, "FAIL: speedup"),
    ("higher-better value on its band edge",
     variant(("values", "speedup", "value", 7.5)), 0, "speedup 7.5"),
    ("lower-better value above its band",
     variant(("values", "p99_ms", "value", 126.0)), 1, "FAIL: p99_ms"),
    ("a value's own tolerance widens its band",
     variant(("values", "p99_ms", "value", 499.0),
             ("values", "p99_ms", "tolerance", 4.0)), 0, "p99_ms 499"),
    ("value missing from the run", variant(("values", "p99_ms", None, None)),
     1, "FAIL: p99_ms missing"),
    ("value missing from the baseline",
     variant(("values", "extra", None, REPORT["values"]["dps"])), 1,
     "FAIL: extra has no baseline"),
    ("host mismatch skips the baseline comparisons",
     variant(("host", "isa", None, "scalar"),
             ("values", "speedup", "value", 1.0),
             ("checks", "floor", None, None)), 0, "WARN: host isa"),
    ("host mismatch still runs the checks",
     variant(("host", "isa", None, "scalar"),
             ("checks", "invariant", None, False)), 1,
     "FAIL: check invariant"),
    ("warn-only value outside its band",
     variant(("values", "dps", "value", 10.0)), 0, "WARN: dps"),
    ("malformed JSON", '{"bench": "bench_x", ', 2, "unreadable input"),
    ("empty report", "", 2, "unreadable input"),
    ("report without a bench", {"checks": {}}, 2, "unreadable input"),
    ("bench without a baseline", dict(REPORT, bench="bench_y"), 2,
     "unreadable input"),
]


def run_gate(report):
    with tempfile.TemporaryDirectory() as tmp:
        baseline = pathlib.Path(tmp, "baseline.json")
        baseline.write_text(json.dumps(BASELINE))
        path = pathlib.Path(tmp, "report.json")
        path.write_text(report if isinstance(report, str)
                        else json.dumps(report))
        proc = subprocess.run([sys.executable, str(GATE), str(baseline),
                               str(path)], capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def main():
    failed = 0
    for name, report, status, text in CASES:
        got, output = run_gate(report)
        ok = got == status and text in output
        print(f"{'ok  ' if ok else 'FAIL'} {name}: exit {got}")
        if not ok:
            print(f"  expected exit {status} naming {text!r}; output:\n"
                  f"{output}")
            failed += 1
    print(f"perf gate test: {len(CASES) - failed}/{len(CASES)} cases passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
