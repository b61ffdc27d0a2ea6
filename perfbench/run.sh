#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload compile --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the Go toolchain writes
# (build cache, temporary files, the binary) stays under .bench_build in
# the current directory. The build needs the repository around the
# benchmark (perfbench/go.mod replaces module rms with ../), so outside a
# checkout it fails and no result is printed.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
