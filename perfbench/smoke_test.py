#!/usr/bin/env python3
"""Smoke test of the request-ledger benchmark.

    python3 perfbench/smoke_test.py

Runs every workload named in BENCHMARK.json, and the two the ledger
keeps outside it (hot_repeat, whose traced run carries the attribution
gate, and fed_fanout), briefly, untraced and traced, with answer
checking on, and asserts that the result line holds
exactly the metrics BENCHMARK.json names, each finite and in its unit,
with no failed request.  Then runs every workload once more with one
reply deliberately corrupted and asserts the corruption is counted as a
failed request.  Exits non-zero on the first broken expectation.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SECONDS = "0.5"
# A traced run needs a few thousand replayed requests before its
# attribution checks are out of the host's noise.
TRACED_SECONDS = "3"
SEED = "7"
UNLISTED = ["hot_repeat", "fed_fanout"]


def run(workload, trace, extra=()):
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
         "--seed", SEED, "--seconds", TRACED_SECONDS if trace else SECONDS,
         "--trace", str(trace), *extra],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600)
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace {trace}: exit {done.returncode}\n{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{workload}: unexpected result keys {sorted(result)}")
    return result


def check_metrics(workload, trace, result, declared):
    metrics = result["metrics"]
    missing = set(declared) - set(metrics)
    extra = set(metrics) - set(declared)
    if missing or extra:
        raise AssertionError(f"{workload} trace {trace}: missing {sorted(missing)}, extra {sorted(extra)}")
    for name, unit in declared.items():
        value = metrics[name]["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise AssertionError(f"{workload} trace {trace}: {name} is not a finite number: {value}")
        if metrics[name]["unit"] != unit:
            raise AssertionError(f"{workload} trace {trace}: {name} has unit "
                                 f"{metrics[name]['unit']}, expected {unit}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for workload in [w["name"] for w in bench["workloads"]] + UNLISTED:
        for trace in (0, 1):
            result = run(workload, trace)
            check_metrics(workload, trace, result, declared[trace])
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                raise AssertionError(f"{workload} trace {trace}: {result['failed']} of "
                                     f"{result['attempted']} requests failed")
            print(f"ok  {workload} trace {trace}: {result['attempted']} requests checked")
        corrupted = run(workload, 0, ["--corrupt-reply", "5"])
        if corrupted["correct"] or corrupted["failed"] != 1:
            raise AssertionError(f"{workload}: corrupted reply not counted "
                                 f"(failed = {corrupted['failed']})")
        print(f"ok  {workload}: the corrupted reply counts, failed_frac = "
              f"{corrupted['failed'] / corrupted['attempted']:.3g}")


if __name__ == "__main__":
    try:
        main()
    except AssertionError as e:
        print(f"FAIL {e}", file=sys.stderr)
        sys.exit(1)
