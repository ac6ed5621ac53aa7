#!/usr/bin/env python3
"""Serving benchmark of the SeqFM stack: one command, one workload per run.

    python3 servebench/run.py --workload rpc_hot --seed 1 --seconds 40 --trace 0
    python3 servebench/run.py --workload all --seed 1 --seconds 40

Run from the repository root. The first run builds the serving stack from
src/ and the benchmark into .bench_build/servebench (CMake, -O2). Each
workload runs in its own process, so caches and compiled bodies never leak
from one workload into another.

Workloads (see BENCHMARK.json for why each was chosen):
  rpc_hot   returning users, cache hits, long-tailed slate sizes of which
            two compile their body on the measured path
  rpc_cold  fresh history and one candidate per request, every request
            misses, inserts and evicts in the context cache
  fleet_catalog  whole-catalog top-10 through a Coordinator over two
            replicas; closed loop only, so it reports a subset of the
            end-to-end metrics, has no traced run (every traced run times
            the coordinator) and is not listed in BENCHMARK.json

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
and the per-layer self-time table, and writes the spans to
.bench_build/servebench/spans/. The last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}. The exit code is not 0
when the build fails, a response differs from the oracle, or a run fails.
--workload all also runs the benchmark's self-tests first.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "servebench")
WORKLOADS = ["fleet_catalog", "rpc_hot", "rpc_cold"]
RUN_TIMEOUT_S = 170


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE="],
        ["cmake", "--build", BUILD, "-j", jobs, "--target", "servebench",
         "servebench_selftest"],
    ]
    for cmd in steps:
        # Build output goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def run(cmd):
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("servebench: run timed out", file=sys.stderr)
        return 1, ""
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    if not build():
        print("servebench: build failed", file=sys.stderr)
        return 1
    work = os.path.join(BUILD, "work")
    spans = os.path.join(BUILD, "spans")
    os.makedirs(work, exist_ok=True)
    os.makedirs(spans, exist_ok=True)

    code = 0
    if args.workload == "all":
        rc, out = run([os.path.join(BUILD, "servebench_selftest"),
                       "--workdir", work])
        sys.stdout.write(out)
        code = code or rc
    for w in WORKLOADS if args.workload == "all" else [args.workload]:
        if args.workload != "all":
            traces = [args.trace]
        else:
            traces = [0] if w == "fleet_catalog" else [0, 1]
        for trace in traces:
            cmd = [os.path.join(BUILD, "servebench"), "--workload", w,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--workdir", work]
            if trace:
                cmd += ["--spans",
                        os.path.join(spans, "%s-%d.jsonl" % (w, args.seed))]
            rc, out = run(cmd)
            sys.stdout.write(out)
            sys.stdout.flush()
            code = code or rc
    return code


if __name__ == "__main__":
    sys.exit(main())
