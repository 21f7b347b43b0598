#!/usr/bin/env python3
"""Alternating parent/change pairs of request-ledger runs.

    python3 tools/ledger_pairs.py --base REV --workload W [--seeds 31-40]
        [--seconds 50]
    make ledger-pairs BASE=REV WORKLOAD=W [SEEDS=31-40] [SECONDS=50]

Exports REV with `git archive` into a temporary directory (as
tools/sim_identity.sh does) and runs `python3 perfbench/run.py`
untraced there and in the working tree, one pair per seed, alternating
which side runs first: the first pair starts with REV, the next with the
working tree, and so on, so a host that drifts during the runs slows
both sides alike.  Each run's result line is printed as it lands.  At
the end, for each end-to-end metric of BENCHMARK.json (names, units,
directions and bounds are read from the working tree's copy): both
sides' medians and quartiles, the pairs the change won, and two
verdicts:

- the gain rule (ROADMAP item 3): the change wins at least 9 pairs in
  10, and its median is better than the parent's by more than the
  parent's quartile gap;
- the bound: the change's median is no worse than the parent's by more
  than the metric's bound.

Every run must also read `correct: true` with 0 failed; the summary
says which did not.  Nothing is written in either tree's perfbench/:
run.py builds into each tree's _build.  Exits 1 if a run failed or was
not correct, or a metric broke its bound; the gain rule is reported,
not enforced, since not every change claims a gain.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_list(text):
    """'31-40' or '5,7,9' (or a mix: '1-3,9')."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def export(rev, into):
    archive = subprocess.run(["git", "-C", ROOT, "archive", rev],
                             stdout=subprocess.PIPE, check=True).stdout
    subprocess.run(["tar", "-x", "-C", into], input=archive, check=True)


def run(tree, workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, os.path.join(tree, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        return {"correct": False, "failed": None, "metrics": {},
                "error": f"exit {done.returncode}"}
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(metrics, pairs):
    """One row per metric; returns whether every bound held."""
    n = len(pairs)
    bounds_hold = True
    print(f"\n{n} pairs; medians and quartiles (q1/q3), parent -> change")
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        pq1, pmed, pq3 = quartiles(parent)
        cq1, cmed, cq3 = quartiles(change)
        wins = sum(1 for p, c in zip(parent, change) if (c < p if lower else c > p))
        gain = (pmed - cmed) if lower else (cmed - pmed)
        rule = wins >= 0.9 * n and gain > pq3 - pq1
        worse = -gain / pmed if pmed else 0.0
        within = worse <= m["bound"]
        bounds_hold = bounds_hold and within
        print(f"  {name:22s} {pmed:12.6g} ({pq1:.6g}/{pq3:.6g}) -> "
              f"{cmed:12.6g} ({cq1:.6g}/{cq3:.6g}) {m['unit']}; "
              f"change {100 * gain / pmed if pmed else 0.0:+.1f}% better, "
              f"wins {wins}/{n}, parent IQR {pq3 - pq1:.6g}; "
              f"gain rule {'holds' if rule else 'fails'}; "
              f"bound {m['bound']} {'held' if within else 'BROKEN'}")
    return bounds_hold


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", required=True, help="the parent revision")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("31-40"))
    parser.add_argument("--seconds", type=float, default=50)
    opts = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify",
                          opts.base + "^{commit}"], stdout=subprocess.PIPE,
                         text=True, check=True).stdout.strip()
    tmp = tempfile.mkdtemp(prefix="ledger-pairs.")
    try:
        base = os.path.join(tmp, "base")
        os.mkdir(base)
        export(rev, base)
        trees = {"parent": base, "change": ROOT}
        pairs, bad = [], []
        for i, seed in enumerate(opts.seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            got = {}
            for side in order:
                result = run(trees[side], opts.workload, seed, opts.seconds)
                got[side] = {k: v["value"] for k, v in result["metrics"].items()}
                print(f"seed {seed} {side:6s} correct {result['correct']} "
                      f"failed {result['failed']} "
                      + " ".join(f"{k}={v:.6g}" for k, v in got[side].items()),
                      flush=True)
                if not result["correct"] or result["failed"] != 0:
                    bad.append(f"seed {seed} {side}")
            if got["parent"] and got["change"]:
                pairs.append((got["parent"], got["change"]))
        print(f"\n{opts.workload}: parent {rev[:12]} vs the working tree, "
              f"seeds {opts.seeds[0]}..{opts.seeds[-1]}, {opts.seconds:g} s per run, "
              f"the parent first in pairs 1, 3, 5, ...")
        bounds_hold = summarize(metrics, pairs) if pairs else False
        if bad:
            print("runs not correct or with failures: " + ", ".join(bad))
        else:
            print("every run correct, 0 failed")
        sys.exit(0 if bounds_hold and not bad else 1)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    main()
