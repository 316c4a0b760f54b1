#!/usr/bin/env python3
"""Repeats the benchmark and checks that it repeats within its own bounds.

    python3 bench/e2e/repeat.py [--runs 5] [--sets 1] [--workloads a,b] [--trace]

Run from the repository root.  Each run is one `run.py` process, measured
for BENCHMARK.json's run_seconds, with its own seed (set k, run i uses seed
1 + k*runs + i).  For every workload and metric it prints the median and
quartiles of each set and the spread, (Q3 - Q1) / median with the
quartiles of statistics.quantiles(n=4).
Untraced, it compares each end-to-end metric's spread with the metric's
bound in BENCHMARK.json and, with --sets 2, the second set's median with
the first's; it exits 1 when a spread or a median drift in the worse
direction exceeds the bound, or when a run fails or reports a wrong answer.
--trace repeats the traced runs and prints the per-layer metrics (no bounds).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: run.py exited with {proc.returncode}")
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    workloads = [w for w in args.workloads.split(",") if w] or [w["name"] for w in spec["workloads"]]
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]

    ok = True
    for w in workloads:
        sets = []
        for k in range(args.sets):
            values = {m["name"]: [] for m in metrics}
            for i in range(args.runs):
                seed = 1 + k * args.runs + i
                try:
                    res = run_once(w, seed, seconds, args.trace)
                except RuntimeError as e:
                    print(f"FAIL {e}")
                    ok = False
                    continue
                if not res["correct"] or res["failed"]:
                    print(f"FAIL {w} seed {seed}: {res['failed']} of {res['attempted']} answers wrong")
                    ok = False
                for name in values:
                    values[name].append(res["metrics"][name]["value"])
            sets.append(values)
        for m in metrics:
            name, unit = m["name"], m["unit"]
            cols = []
            meds = []
            for values in sets:
                v = values[name]
                if not v:
                    continue
                q1, med, q3 = quartiles(v)
                spread = (q3 - q1) / med if med else 0.0
                meds.append(med)
                verdict = ""
                if "bound" in m and spread > m["bound"]:
                    verdict = " SPREAD>BOUND"
                    ok = False
                cols.append(f"median {med:.5g} [{q1:.5g}, {q3:.5g}] spread {spread:6.1%}{verdict}")
            line = f"{w:18s} {name:28s} {unit:8s} " + " | ".join(cols)
            if "bound" in m:
                line += f" | bound {m['bound']:.0%}"
                if len(meds) == 2 and meds[0]:
                    sign = 1 if m["better"] == "lower" else -1
                    drift = sign * (meds[1] - meds[0]) / meds[0]
                    line += f" | drift {drift:+.1%}"
                    if drift > m["bound"]:
                        line += " DRIFT>BOUND"
                        ok = False
            print(line, flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
