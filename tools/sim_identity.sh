#!/bin/sh
# Byte-identity check of every simulated output between a base revision
# and the working tree.
#
#   tools/sim_identity.sh <rev>        (or: make sim-identity BASE=<rev>)
#
# <rev> is exported with `git archive` into a temporary directory outside
# the source tree and built there; the working tree is built in place.
# For each tree, in fresh directories, it runs the four determinism demos
# at their CI seeds (chaos 3, session_chaos 11, control 7, trace 7) and
# `bench/main.exe tab5.2 tab5.3-5.6 tab5.7-5.9 ablation sessions` with
# its wall-clock lines dropped.  Every file the base run leaves behind,
# stdout and each demo's exit status included, is then compared with
# `cmp` against the working tree's: one "same" or "DIFF" line per file,
# exit status 1 on any difference.  Not a CI gate: a change that alters
# behaviour differs on purpose; this is the evidence for one that must
# not.
set -eu

base=${1:?usage: tools/sim_identity.sh <rev>}
root=$(git rev-parse --show-toplevel)
rev=$(git -C "$root" rev-parse --verify "$base^{commit}")
tmp=$(mktemp -d -t sim-identity.XXXXXX)
trap 'rm -rf "$tmp"' EXIT INT TERM

demos="chaos_demo:3 session_chaos_demo:11 control_demo:7 trace_demo:7"
sections="tab5.2 tab5.3-5.6 tab5.7-5.9 ablation sessions"
targets="bench/main.exe"
for d in $demos; do targets="$targets examples/${d%%:*}.exe"; done

mkdir "$tmp/base"
git -C "$root" archive "$rev" | tar -x -C "$tmp/base"

# run_tree <source dir> <output dir>
run_tree() {
  src=$1
  out=$2
  echo "building $src" >&2
  # shellcheck disable=SC2086
  (cd "$src" && dune build --root . $targets 2>&1) >&2
  for d in $demos; do
    demo=${d%%:*}
    mkdir -p "$out/$demo"
    rc=0
    (cd "$out/$demo" && "$src/_build/default/examples/$demo.exe" "${d##*:}" \
      > stdout.txt) || rc=$?
    echo "$rc" > "$out/$demo/exit_status"
  done
  mkdir -p "$out/bench"
  # shellcheck disable=SC2086
  (cd "$out/bench" && "$src/_build/default/bench/main.exe" $sections \
    | grep -v ' s wall' > stdout.txt)
}

run_tree "$tmp/base" "$tmp/out-base"
run_tree "$root" "$tmp/out-work"

status=0
cd "$tmp/out-base"
for f in $(find . -type f | sort); do
  if cmp -s "$f" "$tmp/out-work/$f"; then
    echo "same  ${f#./}"
  else
    echo "DIFF  ${f#./}"
    status=1
  fi
done
cd "$tmp/out-work"
for f in $(find . -type f | sort); do
  if [ ! -e "$tmp/out-base/$f" ]; then
    echo "DIFF  ${f#./} (only in the working tree)"
    status=1
  fi
done
exit $status
