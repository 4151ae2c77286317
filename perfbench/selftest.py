#!/usr/bin/env python3
"""Tiny-scale self-test of the repository benchmark.

    python3 perfbench/selftest.py

For every workload, at tiny scale and one second per phase:
  * an untraced run prints exactly the end-to-end metrics of BENCHMARK.json,
    each with its unit and a nonzero value, and passes its output checks;
  * a traced run prints exactly the per-layer metrics, writes spans with the
    names the README lists, and (TPC-H workloads) its per-query medians sum
    to the untraced plain_s/pk_s/bdcc_s of the same run;
  * a run with one deliberately corrupted reference result reports
    "correct": false and exits nonzero.
It also checks that the binary's metric registry matches BENCHMARK.json and
that an armed fault-injection environment is refused. Exits 1 on any failure.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7
SPANS = {
    "tpch22-t1": {"tpch.create", "tpch.dbgen", "advisor.design",
                  "advisor.build", "tpch.query"},
    "tpch22-t4": {"tpch.create", "tpch.query"},
    "live-append": {"tpch.create", "tpch.query", "serve.execute",
                    "delta.append", "delta.refresh", "delta.drain"},
}

failures = []


def check(cond, what):
    if not cond:
        failures.append(what)
        print("FAIL:", what)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(SEED), "--seconds", "1", "--trace",
           str(trace), "--tiny"] + list(extra)
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    return out.returncode, out.stdout.strip().splitlines(), out.stderr


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                        ".bench_build")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}

    # Build once, then compare the binary's registry with BENCHMARK.json.
    rc, _, err = run("tpch22-t1", 0)
    check(rc == 0, "first tiny run exits 0: " + err[-500:])
    binary = os.path.join(build_dir(), "perfbench")
    registry = json.loads(subprocess.run([binary, "--list-metrics"],
                                         capture_output=True,
                                         text=True).stdout)
    check({m["name"]: m["unit"] for m in registry if m["end_to_end"]} == e2e,
          "end-to-end registry matches BENCHMARK.json")
    check({m["name"]: m["unit"] for m in registry
           if not m["end_to_end"]} == layer,
          "per-layer registry matches BENCHMARK.json")

    env = dict(os.environ, BDCC_FAULT_PROB="0.01")
    refused = subprocess.run(
        [binary, "--workload", "tpch22-t1", "--seed", "1", "--seconds", "1",
         "--trace", "0", "--tiny"], capture_output=True, text=True, env=env)
    check(refused.returncode != 0 and not refused.stdout.strip(),
          "armed fault injection is refused without a result")

    for w in bench["workloads"]:
        name = w["name"]
        print("==", name)
        rc, lines, err = run(name, 0)
        check(rc == 0 and lines, name + " untraced run exits 0: " + err[-500:])
        if lines:
            result = json.loads(lines[-1])
            check(set(result) == {"correct", "attempted", "failed",
                                  "metrics"}, name + " result keys")
            check(result["correct"] and result["failed"] == 0 and
                  result["attempted"] >= 1, name + " correct, no failures")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == e2e, name + " prints every end-to-end metric")
            zero = [k for k, v in result["metrics"].items()
                    if not v["value"] > 0]
            check(not zero, name + " end-to-end metrics nonzero: %s" % zero)

        rc, lines, err = run(name, 1)
        check(rc == 0 and lines, name + " traced run exits 0: " + err[-500:])
        if lines:
            result = json.loads(lines[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == layer, name + " prints every per-layer metric")
            untraced = [json.loads(l[len("untraced "):]) for l in lines
                        if l.startswith("untraced ")]
            check(len(untraced) == 1, name + " traced run echoes untraced")
            if name.startswith("tpch22") and untraced:
                for scheme in ("plain", "pk", "bdcc"):
                    total = sum(v["value"] for k, v in
                                result["metrics"].items()
                                if k.startswith("tpch.q") and
                                k.endswith("." + scheme + "_ms"))
                    want = (untraced[0]["metrics"][scheme + "_s"]["value"] *
                            1000.0)
                    check(abs(total - want) <= 1e-6 * max(1.0, want),
                          "%s per-query %s medians sum to %s_s" %
                          (name, scheme, scheme))
        trace_path = os.path.join(build_dir(), "traces",
                                  "%s-seed%d.json" % (name, SEED))
        check(os.path.exists(trace_path), name + " wrote its trace")
        if os.path.exists(trace_path):
            with open(trace_path) as f:
                trace = json.load(f)
            names = {s["name"] for s in trace["spans"]}
            check(SPANS[name] <= names,
                  "%s spans %s present" % (name, sorted(SPANS[name] - names)))
            if name == "live-append":
                by_id = {s["id"]: s for s in trace["spans"]}
                nested = [s for s in trace["spans"]
                          if s["name"] == "tpch.query" and
                          by_id.get(s["parent"], {}).get("name") ==
                          "serve.execute"]
                check(nested and all(by_id[s["parent"]]["request"] ==
                                     s["request"] for s in nested),
                      "served tpch.query spans nest in serve.execute and "
                      "share its request id")

        rc, lines, err = run(name, 0, "--corrupt")
        last = json.loads(lines[-1]) if lines else {}
        check(rc != 0 and last.get("correct") is False,
              name + " output check fires on a corrupted result")

    print("self-test:", "FAILED (%d)" % len(failures) if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
