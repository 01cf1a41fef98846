# Development entry points. `make check` is the tier-1 verify: full build,
# the whole test suite (which includes the differential matrix of
# output-neutral settings in test/test_golden_reports.ml), and the lint.

.PHONY: all build test check lint bench bench-smoke bench-check pbt-nightly clean

all: build

build:
	dune build

test:
	dune runtest

# Static persistency lint over every bundled case: fails on any
# high-severity finding on a clean case and on any seeded missing-flush bug
# the passes fail to root-cause. The example binary then asserts the
# happens-before race leg end-to-end: race found on the seeded racy
# workload, locked variant clean, seeded labels suppressible.
lint: build
	dune exec bin/jaaru_cli.exe -- lint --fail-on high
	dune exec examples/persistency_race.exe

check: build test lint

bench: build
	dune exec bench/main.exe

# Regenerates BENCH_fig14.json, the committed replay-throughput trajectory.
bench-smoke: build
	dune exec bench/main.exe -- fig14-json

# Regression gate over the committed BENCH_fig14.json: re-measures jobs=1
# replay throughput per Fig. 14 workload and fails on an execution-count
# mismatch or a throughput drop beyond JAARU_BENCH_TOLERANCE (default 20%).
# Run this BEFORE bench-smoke if you want to compare against the committed
# baseline — bench-smoke overwrites it with fresh numbers.
bench-check: build
	dune exec bench/main.exe -- fig14-check

# Long-running variant for nightly jobs: as many sequences as fit in the
# wall budget (seconds; default 10 minutes), deeper command sequences.
# Deterministic coverage is forfeited; failure soundness is not. Publishes
# the schema-versioned coverage/witness summary CI archives and trends.
pbt-nightly: build
	dune exec bin/jaaru_cli.exe -- pbt --count 1000000 --max-cmds 10 \
	  --time-budget $${JAARU_PBT_BUDGET:-600} \
	  --json-out $${JAARU_PBT_JSON:-pbt-coverage.json}

clean:
	dune clean
