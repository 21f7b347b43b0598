#!/usr/bin/env python3
"""Summarise how two Chrome trace-event JSON files differ.

    tools/trace_diff.py BASE WORK

Events are paired in file order.  For each pair that differs, every
differing field (``args`` fields as ``args.<key>``) is counted under the
base event's name; one line per span name and field gives the count, in
first-seen order.  Events present in only one file are counted too.

Exit status 2 when either file is not a Chrome trace (no
``traceEvents`` list), so a caller can fall back to a plain diff; 0
otherwise.  ``tools/sim_identity.sh`` runs it on every differing trace.
"""

import json
import sys


def events(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError):
        return None
    if not isinstance(doc, dict) or not isinstance(doc.get("traceEvents"), list):
        return None
    return doc["traceEvents"]


def fields(event):
    flat = {k: v for k, v in event.items() if k != "args"}
    for k, v in (event.get("args") or {}).items():
        flat["args." + k] = v
    return flat


def main(argv):
    if len(argv) != 3:
        sys.stderr.write("usage: trace_diff.py BASE WORK\n")
        return 2
    base, work = events(argv[1]), events(argv[2])
    if base is None or work is None:
        return 2
    counts = {}
    for b, w in zip(base, work):
        fb, fw = fields(b), fields(w)
        for key in sorted(set(fb) | set(fw)):
            if fb.get(key) != fw.get(key):
                label = "%s %s" % (b.get("name", "?"), key)
                counts[label] = counts.get(label, 0) + 1
    for label, n in counts.items():
        print("%s: %d events" % (label, n))
    if len(base) != len(work):
        print("event count: %d in base, %d in work" % (len(base), len(work)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
