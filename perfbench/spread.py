#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, to check the bounds.

    python3 perfbench/spread.py [--workloads w1,w2] [--seeds 1-10] [--seconds S]

Runs each workload once per seed through run.py (one run at a time) and
prints, per metric, the median and the distance between the first and third
quartile as a share of the median, next to the metric's bound in
BENCHMARK.json. A spread above a third of its bound is flagged ("WIDE"),
except for setup_s, whose bound is checked on medians only. Exits 1 if a
run fails, prints no result, or reports an incorrect output.
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
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr[-2000:])
        return None
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.stderr.write(out.stderr[-2000:])
        return None
    return result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args()

    ok = True
    for workload in args.workloads.split(","):
        values = {}
        for seed in seed_list(args.seeds):
            result = run_once(workload, seed, args.seconds)
            if result is None:
                print("%s seed %d: FAILED" % (workload, seed))
                ok = False
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print("== %s (%d runs)" % (workload, len(values.get("setup_s", []))))
        for metric in bench["end_to_end"]:
            v = values.get(metric["name"], [])
            if len(v) < 4:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            wide = metric["name"] != "setup_s" and spread > metric["bound"] / 3
            print("  %-20s median %12.5g  spread %6.3f  bound %.2f %-4s  %s" %
                  (metric["name"], med, spread, metric["bound"],
                   "WIDE" if wide else "", " ".join("%.4g" % x for x in v)))
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
