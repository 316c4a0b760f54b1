#!/usr/bin/env python3
"""Entry point of the repository benchmark described by BENCHMARK.json.

    python3 bench/e2e/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Configures and builds bench_e2e and its
self-test from source into .bench_build/e2e (the library compiled with the
root build's own flags), runs the self-test whenever its binary has been
rebuilt, runs one workload in its own process, relays its output, and
prints as the last line one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics of BENCHMARK.json with
--trace 0, its per-layer metrics with --trace 1 (a Chrome trace of the
spans is left in .bench_build/e2e).  Exits non-zero, printing no result,
when the build, the self-test or the run fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "e2e")
SELFTEST = os.path.join(BUILD, "bench_e2e_selftest")
SELFTEST_PASSED = SELFTEST + ".passed"  # stamp: newer than the binary once it passed
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: error: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("the library sources are missing: expected CMakeLists.txt and src/ "
             f"at {ROOT}, two levels above the benchmark")
    # Configured on every run, not only the first: the provenance header's
    # commit is read at configure time and must follow the sources.
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "--target", "bench_e2e", "bench_e2e_selftest",
              "-j", str(os.cpu_count() or 1)]]
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def selftest():
    """Runs the harness self-test once per build of it."""
    if (os.path.exists(SELFTEST_PASSED)
            and os.path.getmtime(SELFTEST_PASSED) >= os.path.getmtime(SELFTEST)):
        return
    try:
        rc = subprocess.run([SELFTEST], stdout=sys.stderr, stderr=sys.stderr,
                            timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"bench_e2e_selftest did not finish within {RUN_TIMEOUT_S} s")
    if rc != 0:
        fail(f"bench_e2e_selftest exited with code {rc}")
    with open(SELFTEST_PASSED, "w"):
        pass


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"workload {args.workload!r} is not in BENCHMARK.json")
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    build()
    selftest()
    tag = f"{args.workload}_{args.seed}_{'traced' if args.trace else 'untraced'}"
    result_path = os.path.join(BUILD, f"result_{tag}.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [os.path.join(BUILD, "bench_e2e"), f"--workload={args.workload}",
           f"--seed={args.seed}", f"--seconds={args.seconds:g}", f"--json={result_path}"]
    if args.trace:
        cmd.append(f"--trace={os.path.join(BUILD, f'trace_{tag}.json')}")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"bench_e2e did not finish within {RUN_TIMEOUT_S} s")
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        fail(f"bench_e2e exited with code {proc.returncode}")

    with open(result_path) as f:
        res = json.load(f)
    missing = [n for n in wanted if n not in res["metrics"]]
    if missing:
        fail("bench_e2e did not report " + ", ".join(missing))
    print(json.dumps({
        "correct": bool(res["correct"]),
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": {n: res["metrics"][n] for n in wanted},
    }))


if __name__ == "__main__":
    main()
