#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload micro-lookup --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The binary, the Go build cache, the
# lineage stores of a run and the span dumps of traced runs all live under
# $CARGO_TARGET_DIR (default .bench_build) in that directory.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/go-tmp"

export GOCACHE=$out/go-cache GOPATH=$out/gopath GOTMPDIR=$out/go-tmp \
	GOENV=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" --work-dir "$out/perfbench-work" "$@"
