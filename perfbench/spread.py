#!/usr/bin/env python3
"""Runs the benchmark over several seeds and prints each metric's spread.

    python3 perfbench/spread.py --workload NAME [--seeds 1-10] [--trace 0|1]
                                [--seconds S]

For every metric: the median, the first and third quartiles (as
statistics.quantiles(values, n=4) gives them), and the spread, the
interquartile distance as a share of the median. End-to-end metrics are
also compared with a third of their bound in BENCHMARK.json, the target
that keeps two sets of runs of the same code within the bound. Run from
the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", type=seed_list)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()

    values, failures = {}, 0
    for seed in args.seeds:
        p = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        lines = p.stdout.strip().splitlines()
        if not lines:
            print("seed %d: no result (exit %d)\n%s"
                  % (seed, p.returncode, p.stderr[-2000:]))
            failures += 1
            continue
        result = json.loads(lines[-1])
        print("seed %d: exit %d, attempted %d, failed %d, %s"
              % (seed, p.returncode, result["attempted"], result["failed"],
                 " ".join("%s=%.6g" % (k, m["value"]) for k, m in
                          list(result["metrics"].items())[:6])))
        failures += p.returncode != 0
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print("%-32s %14s %14s %14s %8s  %s" % ("metric", "median", "q1", "q3",
                                            "spread", "target"))
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                     else (vals[0], None, vals[0]))
        spread = (q3 - q1) / med if med else 0.0
        target = ""
        if name in bounds:
            ok = spread <= bounds[name] / 3 or name == "setup_s"
            target = "%s (bound %.2f)" % ("ok" if ok else "WIDE",
                                          bounds[name])
        print("%-32s %14.6g %14.6g %14.6g %8.4f  %s"
              % (name, med, q1, q3, spread, target))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
