#!/usr/bin/env python3
"""Build the request-ledger benchmark from source and run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The binary is built with dune into the
checkout's own _build directory (the shared dune cache stays off, so
nothing is written outside the checkout); build output goes to stderr
so the last line of stdout is the ledger's JSON result.

    python3 perfbench/run.py --workload all --seed N --seconds S

runs every workload untraced and traced and prints each metric by name
and unit (the one-command view of the whole ledger).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = "./perfbench/ledger.exe"
BINARY = os.path.join(ROOT, "_build", "default", "perfbench", "ledger.exe")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(message, file=sys.stderr)
    sys.exit(2)


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail("dune not found on PATH")


def build():
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"not a checkout of the repository: {needed} is missing under {ROOT}")
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        done = subprocess.run(
            dune_command() + ["build", "--root", ROOT, "--cache=disabled", TARGET],
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if done.returncode != 0 or not os.path.exists(BINARY):
        fail("build failed")


def pin_to_one_cpu():
    """Run the ledger on one CPU: the caller thread and, on loopback_udp,
    the daemon's threads then hand over on one core instead of paying a
    cross-CPU wake-up (tens of microseconds on a virtual machine) per
    request, and no workload migrates between cores mid-run.  The
    highest-numbered allowed CPU is the one least likely to take device
    interrupts."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run(workload, seed, seconds, trace, extra=()):
    args = [BINARY, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), *extra]
    try:
        done = subprocess.run(args, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S,
                              preexec_fn=pin_to_one_cpu)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    return done.returncode, done.stdout


def workload_names():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [w["name"] for w in json.load(f)["workloads"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-reply", type=int, default=None,
                        help="corrupt measured reply K before checking (self-test)")
    opts = parser.parse_args()
    build()
    extra = [] if opts.corrupt_reply is None else ["--corrupt-reply", str(opts.corrupt_reply)]
    if opts.workload != "all":
        code, out = run(opts.workload, opts.seed, opts.seconds, opts.trace, extra)
        sys.stdout.write(out)
        sys.exit(code)
    status = 0
    for name in workload_names():
        for trace in (0, 1):
            code, out = run(name, opts.seed, opts.seconds, trace, extra)
            status = status or code
            lines = out.strip().splitlines()
            if code != 0 or not lines:
                print(f"{name} trace {trace}: exit {code}")
                continue
            result = json.loads(lines[-1])
            print(f"{name} trace {trace}: correct {result['correct']}, "
                  f"{result['attempted']} attempted, {result['failed']} failed")
            for metric, m in result["metrics"].items():
                print(f"  {metric:34s} {m['value']:.6g} {m['unit']}")
            if trace == 0:
                print(f"  {'failed_frac':34s} {result['failed'] / result['attempted']:.6g} ratio")
    sys.exit(status)


if __name__ == "__main__":
    main()
