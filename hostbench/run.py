#!/usr/bin/env python3
"""Builds and runs the host-cost benchmark from the root of a checkout.

    python3 hostbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 hostbench/run.py --selfcheck

The first form builds hostbench/ (which compiles the repository's library
from ../src) into .bench_build/hostbench, runs the workload and relays the
runner's output; its last stdout line is the JSON result. --selfcheck runs
every workload in quick mode, traced and untraced, checks that each prints
every metric BENCHMARK.json names exactly once with its unit, and checks that
a corrupted copy of a replica's delivery log fails the correctness gate.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "hostbench")
BINARY = os.path.join(BUILD, "hostbench")


def fail(msg):
    print("hostbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("no %s at the checkout root; the benchmark builds the "
                 "repository's sources and cannot run without them" % needed)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs],
    ]
    if os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps = steps[1:]
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the JSON result.
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def run(args):
    return subprocess.run([BINARY] + args, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True)


def last_json(stdout):
    lines = [l for l in stdout.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def selfcheck():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    ok = True
    for w in spec["workloads"]:
        for trace in (0, 1):
            done = run(["--workload", w["name"], "--seconds", "0",
                        "--trace", str(trace), "--quick"])
            result = last_json(done.stdout) if done.returncode == 0 else None
            got = {} if result is None else {
                k: v["unit"] for k, v in result["metrics"].items()}
            names = [l.split()[1] for l in done.stdout.splitlines()
                     if l.startswith("metric ")]
            problems = []
            if result is None:
                problems.append("run failed (exit %d)" % done.returncode)
            elif got != wanted[trace]:
                problems.append("metrics/units differ from BENCHMARK.json: "
                                "missing %s, extra %s, unit mismatches %s" % (
                                    sorted(set(wanted[trace]) - set(got)),
                                    sorted(set(got) - set(wanted[trace])),
                                    sorted(k for k in got if k in wanted[trace]
                                           and got[k] != wanted[trace][k])))
            elif sorted(names) != sorted(wanted[trace]):
                problems.append("a metric is printed more or less than once")
            print("%-22s trace=%d %s" % (w["name"], trace,
                                         "; ".join(problems) or "ok"))
            ok = ok and not problems
        done = run(["--workload", w["name"], "--corrupt-check"])
        sys.stdout.write(done.stdout)
        ok = ok and done.returncode == 0
    print("selfcheck " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selfcheck", action="store_true")
    a = p.parse_args()
    build()
    if a.selfcheck:
        return selfcheck()
    if not a.workload:
        fail("--workload is required")
    cmd = ["--workload", a.workload, "--seconds", str(a.seconds),
           "--trace", str(a.trace)]
    if a.seed is not None:
        cmd += ["--seed", str(a.seed)]
    done = run(cmd)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
