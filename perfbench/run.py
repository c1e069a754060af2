#!/usr/bin/env python3
"""The repository benchmark: builds perfbench/flashbench from source and runs
one workload of the FlashEd serving stack.

    python3 perfbench/run.py --workload keepalive_hot --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The build goes to $CARGO_TARGET_DIR, or
.bench_build when that is unset.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are the end-to-end ones of BENCHMARK.json; with --trace 1 they
are its per-layer ledger.

    python3 perfbench/run.py --steadiness 5 --seconds 10

runs every workload (or only --workload) with seeds 1..5 and reports, for
each end-to-end metric, the median and the interquartile range as a share
of the median.  A spread above the metric's bound is flagged OVER and makes
the exit status 1; one above a third of it is marked as a warning.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures (once) and builds flashbench; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "Runtime.cpp")):
        log("run.py: the dsu sources (src/) are not in this checkout")
        return None
    bdir = build_dir()
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    cmd = ["cmake", "--build", bdir, "--target", "flashbench", "-j", "2"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    return os.path.join(bdir, "flashbench")


def run_once(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout lines)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", os.path.join(build_dir(), "work")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run.py: %s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
        return 1, []
    return proc.returncode, proc.stdout.splitlines()


def result_of(lines):
    if not lines:
        return None
    try:
        res = json.loads(lines[-1])
    except ValueError:
        return None
    return res if isinstance(res, dict) and "metrics" in res else None


def steadiness(binary, runs, seconds, only):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    flagged = 0
    for w in spec["workloads"]:
        if only and w["name"] != only:
            continue
        values = {name: [] for name in bounds}
        for seed in range(1, runs + 1):
            code, lines = run_once(binary, w["name"], seed, seconds, 0)
            res = result_of(lines)
            if code or res is None or not res["correct"]:
                log("run.py: %s seed %d failed" % (w["name"], seed))
                return 1
            for name in bounds:
                values[name].append(res["metrics"][name]["value"])
        print("%s (%d runs)" % (w["name"], runs))
        for name, vals in values.items():
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / med if med else float("inf")
            # setup_s is compared by its median only, not by its spread.
            over = name != "setup_s" and spread > bounds[name]
            wide = name != "setup_s" and spread > bounds[name] / 3
            flagged += over
            print("  %-24s median %14.6f  iqr/median %6.3f  bound %.2f%s"
                  % (name, med, spread, bounds[name],
                     "  OVER" if over else "  >1/3" if wide else ""))
    return 1 if flagged else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steadiness", type=int, metavar="RUNS", default=0)
    args = ap.parse_args()
    if not args.workload and not args.steadiness:
        ap.error("--workload is required")

    binary = build()
    if binary is None:
        log("run.py: build failed")
        return 1
    if args.steadiness:
        return steadiness(binary, args.steadiness, args.seconds, args.workload)

    code, lines = run_once(binary, args.workload, args.seed, args.seconds,
                           args.trace)
    res = result_of(lines)
    if code or res is None:
        for line in lines:
            log(line)
        log("run.py: %s exited %d without a result" % (args.workload, code))
        return 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
