#!/usr/bin/env bash
# BENCHMARK.json's command. Builds the benchmark into .bench_build/ at the
# root of the checkout, with the Go build cache there too so nothing is
# written outside the checkout, then runs it with the arguments given.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .bench_build/gotmp
export GOCACHE="$PWD/.bench_build/gocache" GOTMPDIR="$PWD/.bench_build/gotmp"
go build -o .bench_build/bench ./bench
exec .bench_build/bench "$@"
