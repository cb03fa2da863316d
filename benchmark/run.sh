#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Everything the build leaves behind (Go build cache, binary, traces)
# stays under .bench_build/ in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "benchmark: $(pwd) is not a checkout of the repository (no go.mod, no internal/)" >&2
	exit 2
fi
mkdir -p .bench_build/tmp
export GOCACHE="$PWD/.bench_build/gocache" GOTMPDIR="$PWD/.bench_build/tmp"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
go build -o .bench_build/mb2-benchmark ./benchmark
exec .bench_build/mb2-benchmark "$@"
