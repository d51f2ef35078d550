#!/usr/bin/env python3
"""End-to-end benchmark runner for rlsched.

Run one workload (what BENCHMARK.json's command does):

    python3 e2ebench/run.py --workload train|replay|archive|serve \
        [--seed N] [--seconds S] [--trace 0|1]

Run every workload in turn:

    python3 e2ebench/run.py --workload all

Compare two checkouts in A/B pairs, and check every workload at small
scale:

    python3 e2ebench/run.py compare PARENT CHANGE
    python3 e2ebench/run.py smoke

The runner builds rlsched_e2e (e2ebench/ is a CMake package of its own; the
build goes to .bench_build/ in the checkout), runs the workload in its own
process, checks the outputs, prints every metric by name with its unit,
writes a per-run JSON file under .bench_build/e2e-results/, and prints the
result as one JSON object on the last line of stdout. It exits nonzero when
a correctness check fails or rlsched_e2e cannot be built or run.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD, "e2ebench")
RESULTS = os.path.join(BUILD, "e2e-results")
DATA = os.path.join(BUILD, "e2e-data")
RUN_TIMEOUT_S = 170
# compare runs this many A/B pairs; pair i uses seed 1 + i on both sides.
COMPARE_PAIRS = 10


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configure (a no-op when cached) and build only rlsched_e2e.
    The compiler's temporary files stay inside the checkout too."""
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr, env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "rlsched_e2e",
                    "-j", jobs], check=True, stdout=sys.stderr, env=env)
    return os.path.join(BUILD_DIR, "rlsched_e2e")


def run_binary(binary, args):
    """Run rlsched_e2e; return (exit code, parsed JSON or None)."""
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                          timeout=RUN_TIMEOUT_S, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc.returncode, None


def measure(binary, workload, seed, seconds, trace, smoke=False):
    """One workload run in its own process; archive inputs are written by
    a separate --prepare process first and removed afterwards."""
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", repr(float(seconds))]
    if smoke:
        args.append("--smoke")
    tag = "%s-seed%d-trace%d%s" % (workload, seed, trace,
                                   "-smoke" if smoke else "")
    os.makedirs(RESULTS, exist_ok=True)
    if trace:
        args += ["--trace", os.path.join(RESULTS, tag + ".spans.json")]
    data = None
    if workload == "archive":
        data = os.path.join(DATA, tag)
        prep = ["--prepare", data, "--seed", str(seed)]
        if smoke:
            prep.append("--smoke")
        subprocess.run([binary] + prep, check=True, stdout=subprocess.DEVNULL,
                       timeout=RUN_TIMEOUT_S)
        args += ["--data", data]
    try:
        rc, out = run_binary(binary, args)
    finally:
        if data:
            shutil.rmtree(data, ignore_errors=True)
    return tag, rc, out


def contract_metrics(spec, out, trace):
    """rlsched_e2e's metrics as the schema in BENCHMARK.json lists them. A
    per-layer metric a workload does not produce is a layer it bypasses
    and reads 0. Raises on a metric the schema does not know, or a
    missing end-to-end metric."""
    schema = spec["per_layer"] if trace else spec["end_to_end"]
    known = {m["name"]: m for m in schema}
    got = out["metrics"]
    unknown = sorted(set(got) - set(known))
    if unknown:
        raise ValueError("metrics missing from BENCHMARK.json: %s" % unknown)
    metrics = {}
    for m in schema:
        if m["name"] in got:
            if got[m["name"]]["unit"] != m["unit"]:
                raise ValueError("unit mismatch for %s" % m["name"])
            metrics[m["name"]] = got[m["name"]]
        elif trace:
            metrics[m["name"]] = {"value": 0.0, "unit": m["unit"]}
        else:
            raise ValueError("end-to-end metric %s not reported" % m["name"])
    return metrics


def print_report(workload, out, metrics):
    print("workload %s  config %s" % (workload, json.dumps(out["config"])))
    for name, ok in out["checks"].items():
        print("  check %-40s %s" % (name, "ok" if ok else "FAILED"))
    for name, m in metrics.items():
        print("  %-40s %16.6g %s" % (name, m["value"], m["unit"]))
    # Timing properties, reported but not correctness checks: a noisy host
    # must not turn a measurement into a wrong answer.
    frac = out["details"].get("reconcile_frac")
    if frac is not None:
        print("  stages sum to %.1f%% of the untraced figure: %s" % (
            100 * frac, "reconciled" if abs(frac - 1) <= 0.10
            else "NOT within 10%"))
    for key, lag in out["details"].items():
        if key.endswith("generator_lag_p99_ms") and lag > 5.0:
            print("  WARNING: %s = %.2f ms > 5 ms: the generator fell "
                  "behind its schedule" % (key, lag))


def run_one(spec, binary, workload, seed, seconds, trace, smoke=False):
    """Run and report one workload; returns the contract result dict."""
    tag, rc, out = measure(binary, workload, seed, seconds, trace, smoke)
    if out is None:
        raise RuntimeError("rlsched_e2e produced no result for %s "
                           "(exit %d)" % (workload, rc))
    metrics = contract_metrics(spec, out, trace)
    print_report(workload, out, metrics)
    result = {"correct": bool(out["correct"]) and rc == 0,
              "attempted": int(out["attempted"]),
              "failed": int(out["failed"]),
              "metrics": metrics}
    with open(os.path.join(RESULTS, tag + ".json"), "w") as f:
        json.dump({"raw": out, "result": result}, f, indent=1)
    return result


def cmd_run(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args(argv)
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    seconds = a.seconds if a.seconds is not None else spec["run_seconds"]
    if a.workload != "all" and a.workload not in names:
        ap.error("unknown workload %s (known: %s)" % (a.workload, names))
    binary = build()
    if a.workload != "all":
        result = run_one(spec, binary, a.workload, a.seed, seconds, a.trace)
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    # Every workload in turn; the last line folds them into one object
    # whose metric names are prefixed with the workload.
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in names:
        r = run_one(spec, binary, w, a.seed, seconds, a.trace)
        combined["correct"] = combined["correct"] and r["correct"]
        combined["attempted"] += r["attempted"]
        combined["failed"] += r["failed"]
        for name, m in r["metrics"].items():
            combined["metrics"][w + "." + name] = m
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


# --- compare ------------------------------------------------------------------

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(metric, parent, change):
    """Classify one (metric, workload) pair of A/B runs:

    worse       the change's median is beyond the bound from the parent's;
    unresolved  either side's spread (IQR / median) exceeds the bound,
                unless every change run beats every parent run;
    improved    the change wins >= 90% of pairs (ties count for neither)
                and its median is better by more than the parent's IQR;
    same        otherwise.
    """
    sign = 1.0 if metric["better"] == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    bound = metric["bound"]
    if sign * (pm - cm) > bound * abs(pm):
        return "worse", wins
    spread = max((p3 - p1) / abs(pm), (c3 - c1) / abs(cm))
    every = all(sign * (c - p) > 0 for c in change for p in parent)
    if spread > bound and not every:
        return "unresolved", wins
    if wins >= 0.9 * len(parent) and sign * (cm - pm) > p3 - p1:
        return "improved", wins
    return "same", wins


def cmd_compare(argv):
    ap = argparse.ArgumentParser(prog="run.py compare")
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", action="append")
    a = ap.parse_args(argv)
    sides = [os.path.abspath(a.parent), os.path.abspath(a.change)]
    spec = load_spec()
    for d in sides:
        with open(os.path.join(d, "BENCHMARK.json")) as f:
            if json.load(f) != spec:
                log("WARNING: %s has a different BENCHMARK.json" % d)
    workloads = a.workload or [w["name"] for w in spec["workloads"]]
    values = {}
    for w in workloads:
        for i in range(COMPARE_PAIRS):
            order = [0, 1] if i % 2 == 0 else [1, 0]
            for side in order:
                cmd = [sys.executable, os.path.join("e2ebench", "run.py"),
                       "--workload", w, "--seed", str(1 + i),
                       "--seconds", str(spec["run_seconds"]), "--trace", "0"]
                proc = subprocess.run(cmd, cwd=sides[side], text=True,
                                      stdout=subprocess.PIPE)
                lines = proc.stdout.strip().splitlines()
                res = json.loads(lines[-1]) if lines else {"correct": False}
                if proc.returncode != 0 or not res["correct"]:
                    log("run failed: %s in %s" % (w, sides[side]))
                    return 2
                for name, m in res["metrics"].items():
                    values.setdefault((w, name), ([], []))[side].append(
                        m["value"])
            log("%s pair %d/%d done" % (w, i + 1, COMPARE_PAIRS))
    report = []
    worse = False
    print("%-8s %-12s %-32s %-32s %-6s %s" % (
        "workload", "metric", "parent median [q1, q3]",
        "change median [q1, q3]", "wins", "verdict"))
    for m in spec["end_to_end"]:
        for w in workloads:
            parent, change = values[(w, m["name"])]
            v, wins = verdict(m, parent, change)
            worse = worse or v == "worse"
            cols = ["%.4g [%.4g, %.4g]" % (q[1], q[0], q[2])
                    for q in (quartiles(parent), quartiles(change))]
            print("%-8s %-12s %-32s %-32s %2d/%-3d %s" % (
                w, m["name"], cols[0], cols[1], wins, len(parent), v))
            report.append({"workload": w, "metric": m["name"],
                           "parent": parent, "change": change,
                           "wins": wins, "verdict": v})
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, "compare-%d.json" % int(time.time()))
    with open(path, "w") as f:
        json.dump(report, f, indent=1)
    log("wrote %s" % path)
    return 1 if worse else 0


# --- smoke --------------------------------------------------------------------

def cmd_smoke(argv):
    ap = argparse.ArgumentParser(prog="run.py smoke")
    ap.add_argument("--binary", default=None)
    a = ap.parse_args(argv)
    spec = load_spec()
    binary = a.binary or build()
    per_layer_seen = set()
    ok = True
    for w in [x["name"] for x in spec["workloads"]]:
        for trace in (0, 1):
            tag, rc, out = measure(binary, w, 7, 0.4, trace, smoke=True)
            if out is None or rc != 0 or not out["correct"]:
                log("smoke: %s trace=%d failed (exit %d)" % (w, trace, rc))
                ok = False
                continue
            try:
                contract_metrics(spec, out, trace)
            except ValueError as e:
                log("smoke: %s trace=%d: %s" % (w, trace, e))
                ok = False
            if trace:
                per_layer_seen |= set(out["metrics"])
    never = sorted({m["name"] for m in spec["per_layer"]} - per_layer_seen)
    if never:
        log("smoke: per-layer metrics no workload reports: %s" % never)
        ok = False
    print("e2e smoke: %s" % ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def main():
    argv = sys.argv[1:]
    try:
        if argv[:1] == ["compare"]:
            return cmd_compare(argv[1:])
        if argv[:1] == ["smoke"]:
            return cmd_smoke(argv[1:])
        return cmd_run(argv)
    except (OSError, ValueError, RuntimeError,
            subprocess.SubprocessError) as e:
        log("run.py: %s" % e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
