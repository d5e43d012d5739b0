#!/usr/bin/env python3
"""Runs servebench on two checkouts in alternating pairs and compares them.

    python3 scripts/servebench_pairs.py --parent <checkout> --change <checkout> \
        --workload explore_loop --pairs 10 [--held-out] [--seconds 15] [--trace 0]

Each checkout runs its own servebench/run.py, which builds the benchmark from
that checkout's sources. Pair i runs seed --seed + i on both sides (every pair
runs the held-out seed with --held-out); even pairs run the parent first, odd
pairs the change first, so that drift in the machine's state does not favour
one side.

For every metric the last line of run.py reports, it prints each side's
median and quartiles and how many pairs the change won (a tie counts for
neither). A metric reads "gain" only when the change won at least nine tenths
of the pairs and the medians differ, in the better direction, by more than
the parent's interquartile range. It reads "worse" when the change's median is
worse than the parent's by more than the bound BENCHMARK.json sets, and
"unresolved" when the parent's own spread is wider than that bound. The last
line is the summary as one JSON object.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 1200


def load_spec(checkout):
    """Returns ({metric: spec entry}, run_seconds) from BENCHMARK.json."""
    path = Path(checkout) / "BENCHMARK.json"
    if not path.is_file():
        return {}, None
    spec = json.loads(path.read_text())
    metrics = {}
    for entry in spec.get("end_to_end", []) + spec.get("per_layer", []):
        metrics[entry["name"]] = entry
    return metrics, spec.get("run_seconds")


def run_side(checkout, args, seed):
    """Runs one servebench pass; returns its metrics {name: (value, unit)}."""
    cmd = [sys.executable, "servebench/run.py", "--workload", args.workload,
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    cmd += ["--held-out"] if args.held_out else ["--seed", str(seed)]
    try:
        done = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"{checkout}: seed {seed} timed out\n")
        return None
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        result = None
    if done.returncode != 0 or result is None:
        sys.stderr.write(done.stderr[-4000:] + done.stdout[-4000:])
        sys.stderr.write(f"{checkout}: seed {seed}: run.py exit code "
                         f"{done.returncode}\n")
        return None
    if not result.get("correct") or result.get("failed", 0) != 0:
        sys.stderr.write(f"{checkout}: seed {seed}: {result.get('failed')} of "
                         f"{result.get('attempted')} operations failed or the "
                         f"outputs were wrong\n")
        return None
    return {name: (m["value"], m["unit"])
            for name, m in result["metrics"].items()}


def quartiles(values):
    """(q1, median, q3) of the values, as statistics.quantiles computes."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent, change, wins, pairs, better, bound):
    """The reading of one metric by the rule in the module docstring."""
    if better not in ("lower", "higher"):
        return ""
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (c_med - p_med)
    if wins >= math.ceil(0.9 * pairs) and gain > p_q3 - p_q1:
        return "gain"
    if bound is not None and p_med:
        if (p_q3 - p_q1) / abs(p_med) > bound:
            return "unresolved"
        if -gain / abs(p_med) > bound:
            return "worse"
    return ""


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="parent checkout")
    parser.add_argument("--change", required=True, help="changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the first pair; pair i runs seed + i")
    parser.add_argument("--held-out", action="store_true",
                        help="every pair runs servebench's held-out seed")
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: BENCHMARK.json's)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    spec, run_seconds = load_spec(args.parent)
    if args.seconds is None:
        args.seconds = run_seconds if run_seconds is not None else 15

    sides = {"parent": args.parent, "change": args.change}
    values = {"parent": {}, "change": {}}
    units = {}
    for i in range(args.pairs):
        seed = args.seed + i
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        got = {}
        for side in order:
            metrics = run_side(sides[side], args, seed)
            if metrics is None:
                return 1
            got[side] = metrics
        for side in order:
            for name, (value, unit) in got[side].items():
                values[side].setdefault(name, []).append(value)
                units[name] = unit
        shared = [n for n in got["parent"] if n in got["change"]]
        print(f"pair {i + 1} seed {'held-out' if args.held_out else seed} "
              f"({order[0]} first): " + ", ".join(
                  f"{n}={got['parent'][n][0]:.6g}/{got['change'][n][0]:.6g}"
                  for n in shared), flush=True)

    summary = {}
    print(f"\n{args.workload}: {args.pairs} pairs, --seconds {args.seconds}, "
          f"--trace {args.trace}; values parent -> change")
    print(f"  {'metric':<34} {'parent median [q1, q3]':>32} "
          f"{'change median [q1, q3]':>32} {'ratio':>7} {'wins':>6}  reading")
    for name in values["parent"]:
        parent = values["parent"][name]
        change = values["change"].get(name)
        if not change or len(change) != len(parent):
            continue
        better = spec.get(name, {}).get("better")
        bound = spec.get(name, {}).get("bound")
        wins = 0
        for p, c in zip(parent, change):
            if (better == "lower" and c < p) or (better == "higher" and c > p):
                wins += 1
        p_q1, p_med, p_q3 = quartiles(parent)
        c_q1, c_med, c_q3 = quartiles(change)
        ratio = c_med / p_med if p_med else float("nan")
        reading = verdict(parent, change, wins, args.pairs, better, bound)
        wins_text = f"{wins}/{args.pairs}" if better else "-"
        p_text = f"{p_med:.6g} [{p_q1:.4g}, {p_q3:.4g}]"
        c_text = f"{c_med:.6g} [{c_q1:.4g}, {c_q3:.4g}]"
        print(f"  {name:<34} {p_text:>32} {c_text:>32} {ratio:>7.3f} "
              f"{wins_text:>6}  {reading}")
        summary[name] = {"unit": units[name], "better": better,
                         "parent": {"median": p_med, "q1": p_q1, "q3": p_q3,
                                    "values": parent},
                         "change": {"median": c_med, "q1": c_q1, "q3": c_q3,
                                    "values": change},
                         "wins": wins, "reading": reading}
    print(json.dumps({"workload": args.workload, "pairs": args.pairs,
                      "held_out": args.held_out, "seconds": args.seconds,
                      "trace": args.trace, "metrics": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
