.PHONY: all build test fmt harnesses trajectory check clean

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

# One seed-0 run of each benchmark workload with per-layer rows (about
# 15 s): the deterministic rows must equal the tracked
# bench/trajectory.json, and allocated words per event may move by at
# most 2%. A change that moves a row on purpose regenerates the file
# (see bench/trajectory.py) and says why.
trajectory:
	@python3 bench/trajectory.py > /dev/null

# The pre-merge gate: format (when available), build with warnings
# promoted to errors under lib/ (see lib/dune), run every test suite,
# every harness sweep, the allocation trajectory, and the benchmark's
# toy-size self-test.
check: fmt build test harnesses trajectory
	python3 perfbench/run.py --self-test

clean:
	dune clean
