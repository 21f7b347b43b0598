.PHONY: all build test bench bench-check lint check doc clean sim-identity \
  ledger-pairs

all: build

build:
	dune build

test:
	dune runtest

# Wizard request-throughput benchmark and the session plane: re-record
# the committed BENCH_wizard.json and BENCH_sessions.json.  The
# federation path's benchmark is the request ledger's fed_fanout
# workload (perfbench/).
bench:
	dune exec bench/main.exe -- wizard sessions

# The same two benches as a smoke test of the request path, run in
# _build/bench so the committed files stay as they are, then compared
# with them (tools/bench_diff.py): words within 2%; cache, push,
# rebuild and lossy-plane counts and every session field exactly.
BENCH_OUT = _build/bench
bench-check: build
	mkdir -p $(BENCH_OUT)
	cd $(BENCH_OUT) && $(CURDIR)/_build/default/bench/main.exe wizard sessions
	python3 tools/bench_diff.py $(BENCH_OUT)

# Static analysis over the typed trees (see ANALYSIS.md); exits
# non-zero on any error not excused by lint.allow.  Needs the cmts,
# hence the build dependency; a plain build leaves none for the main
# module of an executable (bin/smart.ml, bench/main.ml, the examples,
# the tests), so @check builds those before the reach and knob rules
# look for callers.  --strict turns stale allowlist entries into errors so
# lint.allow can only shrink; the JSON twin of the report lands in
# _build/smartlint.json (CI uploads it as an artifact).
lint: build
	dune build @check
	dune exec tools/smartlint/main.exe -- --root . --strict \
	  --json-out _build/smartlint.json

# Byte-identity of every simulated output (determinism demos and the
# seeded bench sections) between BASE and the working tree; see
# tools/sim_identity.sh.  Not part of `check`: behaviour changes differ
# on purpose.
sim-identity:
	tools/sim_identity.sh $(BASE)

# Alternating ledger pairs, BASE's tree against the working tree, on
# WORKLOAD: each end-to-end metric's medians, quartiles and pairs won,
# the gain rule and the bound; see tools/ledger_pairs.py.
SEEDS ?= 31-40
SECONDS ?= 50
ledger-pairs:
	python3 tools/ledger_pairs.py --base $(BASE) --workload $(WORKLOAD) \
	  --seeds $(SEEDS) --seconds $(SECONDS)

# Documentation cross-references: every {!...} in a lib/**/*.mli must
# name a declaration of the interfaces (smartlint's doc rule, see
# ANALYSIS.md).  Needs the cmtis a plain build leaves.
doc: build
	dune exec tools/smartlint/main.exe -- --root . --only doc

# What CI runs: full build, the whole test tree, the wizard and session
# benches as a smoke test of the request path (out of the tree, diffed
# with the committed files), and the lint gate (plus `make doc`, its
# own step).
check: build test bench-check lint

clean:
	dune clean
