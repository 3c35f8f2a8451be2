.PHONY: all build test fmt harnesses seeds surface trajectory check clean

all: build

build:
	dune build

test:
	dune runtest

# Formatting is best-effort: the check must stay runnable on boxes
# without ocamlformat (the build container does not ship it).
fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then \
		dune build @fmt --auto-promote; \
	else \
		echo "ocamlformat not found: skipping fmt"; \
	fi

# Every harness in Flux_harness.Registry (chaos, overload, shard, ckpt,
# sched, telem, elastic): each bench sweep asserts its invariants and
# headline checks, writes BENCH_<NAME>.json, and any violation fails the
# target. BENCH_FAST=1 selects the reduced scales CI uses; there the
# sweep's `fingerprint NAME HEX` lines must also equal the tracked
# bench/fingerprints.fast, so a change that moves any simulated result
# fails until it regenerates that file (and says why).
harnesses:
	@log=$$(mktemp); \
	{ dune exec bench/main.exe -- harnesses; echo $$? > $$log.status; } | tee $$log; \
	status=$$(cat $$log.status); \
	if [ -n "$$BENCH_FAST" ] && ! grep '^fingerprint ' $$log | diff -u bench/fingerprints.fast -; then \
		echo "fast-tier fingerprints differ from bench/fingerprints.fast"; \
		status=1; \
	fi; \
	rm -f $$log $$log.status; \
	exit $$status

# The fast wide-seed report (about 3 s): every kill schedule over its
# fast seed range, one line per run (see bench/seeds/seeds.ml), must
# equal the tracked bench/seeds.fast. A change that moves a line
# regenerates the file with
#   BENCH_FAST=1 dune exec bench/seeds/seeds.exe > bench/seeds.fast
# and says why. Without BENCH_FAST the full report (9,400 runs, about
# 1.5 min) runs too and fails on any run with a violation (its fifth
# column), printing those runs.
seeds:
	@BENCH_FAST=1 dune exec bench/seeds/seeds.exe | diff -u bench/seeds.fast - \
		|| { echo "wide-seed report differs from bench/seeds.fast"; exit 1; }
	@if [ -z "$$BENCH_FAST" ]; then \
		dune exec bench/seeds/seeds.exe | awk '$$5 != 0 { print; bad = 1 } END { exit bad }' \
			|| { echo "the full wide-seed report has violations"; exit 1; }; \
	fi

# Every export of lib/ that no program names must be listed, with the
# guarantee of program code its test states, in bench/surface.keep;
# every line there must still name such an export, and none may mark
# its guarantee "deferred:" (see bench/surface.py).
surface:
	@python3 bench/surface.py --check

# Two seed-0 runs of each benchmark workload, one with per-layer rows
# and one end to end (about 40 s): the deterministic rows must equal the
# tracked bench/trajectory.json, and allocated words per event and the
# live heap may move by at most 2%. A change that moves a row on purpose
# regenerates the file (see bench/trajectory.py) and says why.
trajectory:
	@python3 bench/trajectory.py > /dev/null

# The pre-merge gate: format (when available), build with warnings
# promoted to errors under lib/ (see lib/dune), run every test suite,
# every harness sweep, the wide-seed report (fast, and full without
# BENCH_FAST), the unused-export
# scan, the allocation trajectory, and the benchmark's toy-size
# self-test.
check: fmt build test harnesses seeds surface trajectory
	python3 perfbench/run.py --self-test

clean:
	dune clean
