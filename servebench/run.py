#!/usr/bin/env python3
"""Builds and runs the LTE serving benchmark.

One run:
    python3 servebench/run.py --workload explore_loop --seed 1 --seconds 8 --trace 0

prints the workload's report and, as its last line, one JSON object with the
keys correct, attempted, failed and metrics (end-to-end metrics with
--trace 0, per-layer metrics with --trace 1).

Repeat mode, for setting bounds and showing that two sets of runs agree:
    python3 servebench/run.py --workload retrieve_scan --seed 1 --seconds 8 \
        --trace 0 --repeat 10 --sets 2

runs the workload with seeds seed..seed+repeat-1 in the first set,
seed+repeat..seed+2*repeat-1 in the second, and so on, and prints, per
metric, the median, quartiles and relative spread (q3 - q1) / median of each
set, and the shift of the last set's median from the first's.

Run from the root of a checkout: the library is built from ./src into
./.bench_build/servebench.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "servebench"
OUT_DIR = ROOT / ".bench_build" / "servebench-out"
BINARY = BUILD_DIR / "servebench"
WORKLOADS = ["explore_loop", "retrieve_scan", "session_churn", "ingest_scan"]
# Seeds 1-10 were used while the benchmark was tuned. Check a later claim
# once more on this seed, which was not.
HELD_OUT_SEED = 7919
RUN_TIMEOUT_S = 175


def build():
    """Configures and builds the benchmark; build output goes to stderr."""
    steps = [
        ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD_DIR), "--target", "servebench",
         "-j", "4"],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            return False
    return BINARY.is_file()


def run_once(workload, seed, seconds, trace):
    """Runs the binary once; returns (stdout lines, result dict) or None."""
    out_dir = OUT_DIR / workload
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--out-dir", str(out_dir)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stderr.write(f"servebench: {workload} seed {seed} timed out\n")
        sys.stderr.write(e.stdout or "")
        return None
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout)
        sys.stderr.write(f"servebench: exit code {done.returncode}\n")
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(done.stdout)
        sys.stderr.write("servebench: last line is not a result\n")
        return None
    return lines, result


def spread_stats(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median if median else float("inf")
    return median, q1, q3, spread


def load_bounds():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return {}
    spec = json.loads(path.read_text())
    return {m["name"]: m for m in spec.get("end_to_end", [])}


def repeat(args):
    bounds = load_bounds()
    sets = []
    for s in range(args.sets):
        values = {}
        units = {}
        for i in range(args.repeat):
            seed = args.seed + s * args.repeat + i
            got = run_once(args.workload, seed, args.seconds, args.trace)
            if got is None:
                return 1
            result = got[1]
            if not result["correct"] or result["failed"] != 0:
                sys.stderr.write(f"servebench: seed {seed}: {result['failed']} "
                                 f"of {result['attempted']} operations failed\n")
                return 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            print(f"set {s + 1} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                flush=True)
        sets.append((values, units))

    summary = {}
    print(f"\n{args.workload}: {args.repeat} runs per set, {args.sets} set(s), "
          f"--seconds {args.seconds}")
    print(f"  {'metric':<36} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}  note")
    for name in sets[0][0]:
        bound = bounds.get(name, {}).get("bound")
        medians = []
        for s, (values, units) in enumerate(sets):
            median, q1, q3, spread = spread_stats(values[name])
            medians.append(median)
            note = ""
            if bound is not None and spread > bound / 3:
                note = "spread above bound/3"
            print(f"  {name:<36} {s + 1:>3} {median:>12.6g} {q1:>12.6g} "
                  f"{q3:>12.6g} {spread:>8.4f} "
                  f"{'' if bound is None else bound:>6}  {note}")
            summary.setdefault(name, []).append(
                {"median": median, "q1": q1, "q3": q3, "spread": spread,
                 "unit": units[name]})
        if len(medians) > 1 and medians[0]:
            shift = (medians[-1] - medians[0]) / medians[0]
            note = ("" if bound is None or abs(shift) <= bound
                    else "  shift above bound")
            print(f"  {name:<36} second-set median shift {shift:+.4f}{note}")
    print(json.dumps({"workload": args.workload, "repeat": args.repeat,
                      "sets": args.sets, "metrics": summary}))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--held-out", action="store_true",
                        help=f"use the held-out seed {HELD_OUT_SEED}")
    parser.add_argument("--seconds", type=float, default=8)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="repeat mode: runs per set")
    parser.add_argument("--sets", type=int, default=1,
                        help="repeat mode: number of sets")
    args = parser.parse_args()
    if args.held_out:
        args.seed = HELD_OUT_SEED
    os.chdir(ROOT)
    if not build():
        sys.stderr.write("servebench: build failed\n")
        return 1
    if args.repeat > 0:
        return repeat(args)
    got = run_once(args.workload, args.seed, args.seconds, args.trace)
    if got is None:
        return 1
    print("\n".join(got[0]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
