#!/usr/bin/env python3
"""Build the engine and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) and is a Release build; build output goes to stderr, so the
last line of stdout is the benchmark's result object. A traced run writes
its spans to <build dir>/traces/<workload>-seed<n>.json.
"""
import argparse
import hashlib
import os
import signal
import subprocess
import sys

WORKLOADS = ("tpch22-t1", "tpch22-t4", "live-append")
RUN_TIMEOUT_S = 170


def run_child(cmd, timeout=None, **kwargs):
    """Run `cmd` to completion; if this script is terminated or the timeout
    passes, stop the child and wait for it before exiting."""
    proc = subprocess.Popen(cmd, **kwargs)

    def stop(signum, frame):
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    previous = signal.signal(signal.SIGTERM, stop)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s" % timeout, file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        raise
    finally:
        signal.signal(signal.SIGTERM, previous)


def affinity_cpus():
    return max(1, len(os.sched_getaffinity(0)))


def source_id(root):
    """The git commit, or a digest of the engine sources outside git."""
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=root, capture_output=True, text=True,
                             timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, base)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:12]


def build(root, build_dir):
    """Configure (first time) and build; returns the binary path or None."""
    log = sys.stderr
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        rc = run_child(
            ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"], stdout=log, stderr=log)
        if rc != 0:
            return None
    rc = run_child(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j",
         str(min(4, affinity_cpus()))], stdout=log, stderr=log)
    if rc != 0:
        return None
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--tiny", action="store_true",
                        help="tiny scale (the self-test's mode)")
    parser.add_argument("--corrupt", action="store_true",
                        help="damage one checked result (self-test)")
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(root, build_dir)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--commit", source_id(root)]
    if args.trace == "1":
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt:
        cmd.append("--corrupt")
    sys.stdout.flush()
    return run_child(cmd, timeout=RUN_TIMEOUT_S, cwd=root)


if __name__ == "__main__":
    sys.exit(main())
