#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build and runs it. Run from
# the repository root; every argument is passed to the benchmark:
#   bash perfbench/run.sh --workload web --seed 7 --seconds 20 --trace 0
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
