.PHONY: all build test bench lint check doc clean sim-identity

all: build

build:
	dune build

test:
	dune runtest

# Wizard request-throughput and federated fan-out benchmarks (write
# BENCH_wizard.json and BENCH_federation.json).
bench:
	dune exec bench/main.exe -- wizard federation sessions

# Static analysis over the typed trees (see ANALYSIS.md); exits
# non-zero on any error not excused by lint.allow.  Needs the cmts,
# hence the build dependency.  --strict turns stale allowlist entries
# into errors so lint.allow can only shrink; the JSON twin of the
# report lands in _build/smartlint.json (CI uploads it as an
# artifact).
lint: build
	dune exec tools/smartlint/main.exe -- --root . --strict \
	  --json-out _build/smartlint.json

# Byte-identity of every simulated output (determinism demos and the
# seeded bench sections) between BASE and the working tree; see
# tools/sim_identity.sh.  Not part of `check`: behaviour changes differ
# on purpose.
sim-identity:
	tools/sim_identity.sh $(BASE)

# API docs; CI keeps this warning-clean.
doc:
	dune build @doc

# What CI runs: full build, the whole test tree, the wizard bench as a
# smoke test of the request path, and the lint gate (plus `make doc`,
# its own step).
check: build test bench lint

clean:
	dune clean
