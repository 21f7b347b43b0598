#!/usr/bin/env python3
"""Compare fresh bench results with the committed copies.

    python3 tools/bench_diff.py COMMITTED_DIR

Run from the repository root after `bench/main.exe -- wizard sessions`
has rewritten BENCH_wizard.json and BENCH_sessions.json; COMMITTED_DIR
holds the copies taken before the bench overwrote them.  Only fields
the host cannot change are compared:

- BENCH_wizard.json: the words fields (minor plus direct-major words)
  within 2% of the committed value; the cache, push-generation, rebuild
  and lossy-plane counts exactly.  Wall-clock rates and latencies are not compared.
- BENCH_sessions.json: every field exactly (it runs on the simulated
  clock).

Prints one line per mismatch and exits 1 if there is any.  A change
that moves these fields on purpose re-records the files.
"""

import json
import os
import sys

WORDS_TOLERANCE = 0.02

WIZARD_WORDS = (
    "cold_allocs_per_req",
    "warm_allocs_per_req",
    "warm_traced_allocs_per_req",
    "push_words_per_server",
    "select_words_2000",
    "cache_key_words",
)

WIZARD_EXACT = (
    "warm_compile_cache_hits",
    "warm_compile_cache_misses",
    "warm_result_cache_misses",
    "warm_snapshot_rebuilds",
    "push_generations",
    "push_snapshot_rebuilds",
    "lossy_requests",
    "request_success_rate",
    "lossy_retries_total",
    "retry_p95",
)


def load(directory, name):
    with open(os.path.join(directory, name)) as f:
        return json.load(f)


def field(results, name, key, problems):
    if key not in results:
        problems.append(f"{name}: {key} missing")
        return None
    return results[key]


def diff_wizard(committed, fresh, problems):
    name = "BENCH_wizard.json"
    for key in WIZARD_WORDS:
        old = field(committed, name, key, problems)
        new = field(fresh, name, key, problems)
        if old is None or new is None:
            continue
        if abs(new - old) > WORDS_TOLERANCE * abs(old):
            problems.append(
                f"{name}: {key} {new} is {100 * (new - old) / old:+.1f}% from "
                f"the committed {old} (tolerance {100 * WORDS_TOLERANCE:.0f}%)")
    for key in WIZARD_EXACT:
        old = field(committed, name, key, problems)
        new = field(fresh, name, key, problems)
        if old is not None and new is not None and new != old:
            problems.append(f"{name}: {key} {new}, committed {old}")


def diff_sessions(committed, fresh, problems):
    name = "BENCH_sessions.json"
    for key in sorted(set(committed) | set(fresh)):
        old = committed.get(key)
        new = fresh.get(key)
        if new != old:
            problems.append(f"{name}: {key} {new}, committed {old}")


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    committed_dir = sys.argv[1]
    problems = []
    diff_wizard(load(committed_dir, "BENCH_wizard.json"),
                load(".", "BENCH_wizard.json"), problems)
    diff_sessions(load(committed_dir, "BENCH_sessions.json"),
                  load(".", "BENCH_sessions.json"), problems)
    for p in problems:
        print(p)
    if problems:
        sys.exit(1)
    print("bench results match the committed files")


if __name__ == "__main__":
    main()
