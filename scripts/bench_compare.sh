#!/bin/sh
# Bench regression gate: re-run the deterministic load-balancer scaling
# bench (rmsbench -json -skew) and compare the document against the
# committed BENCH_baseline.json with cmd/benchcmp's tolerance band.
# Wall-clock-derived fields (ModeledSec, *_ns / *_seconds metrics) are
# excluded; everything else — modeled op counts, speedups, re-plan
# counts, degradation/fault counters, metric families — must stay
# within the band. See docs/observability.md.
#
# Usage:
#   scripts/bench_compare.sh            # gate: exit 1 outside the band
#   scripts/bench_compare.sh -report    # print findings, always exit 0
#   scripts/bench_compare.sh -update    # re-seed BENCH_baseline.json
#
# Environment:
#   BENCH_TOL   relative tolerance (default 0.10)
set -eu

cd "$(dirname "$0")/.."

baseline=BENCH_baseline.json
tol="${BENCH_TOL:-0.10}"
mode=gate
for arg in "$@"; do
	case "$arg" in
	-update) mode=update ;;
	-report) mode=report ;;
	*)
		echo "usage: $0 [-report|-update]" >&2
		exit 2
		;;
	esac
done

# The baseline workload: skewed-corpus load-balancer scaling at 8 ranks.
# Everything it reports except wall-clock scaling is counted solver
# work, so the document is stable across hosts (docs/load-balancing.md).
run_bench() {
	go run ./cmd/rmsbench -json -skew -variants 8 2>/dev/null
}

if [ "$mode" = update ]; then
	echo "== re-seeding $baseline (rmsbench -json -skew -variants 8)"
	run_bench >"$baseline"
	echo "wrote $baseline"
	exit 0
fi

if [ ! -f "$baseline" ]; then
	echo "bench_compare: $baseline missing — run '$0 -update' once to seed it" >&2
	exit 2
fi

current=$(mktemp "${TMPDIR:-/tmp}/bench_current.XXXXXX.json")
trap 'rm -f "$current"' EXIT

echo "== rmsbench -json -skew -variants 8 (fresh run)"
run_bench >"$current"

echo "== benchcmp -tol $tol $baseline"
if [ "$mode" = report ]; then
	go run ./cmd/benchcmp -report -tol "$tol" "$baseline" "$current"
else
	go run ./cmd/benchcmp -tol "$tol" "$baseline" "$current"
fi
