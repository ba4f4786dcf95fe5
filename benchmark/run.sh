#!/usr/bin/env bash
# The command BENCHMARK.json names: builds the benchmark from source
# inside the checkout and runs one workload. Everything the build writes
# (binary, Go build cache, temporary files) stays under benchmark/.build.
# Run from the repository's root:
#
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
set -euo pipefail
build="$PWD/benchmark/.build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
bin="$build/hrmc-benchmark"
go build -o "$bin.$$" ./benchmark
mv -f "$bin.$$" "$bin"
exec "$bin" "$@"
