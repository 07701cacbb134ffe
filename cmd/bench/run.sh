#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping every byte it writes
# (Go build cache included) inside the checkout. Arguments go to the binary:
#   bash cmd/bench/run.sh --workload spec_replay --seed 3 --seconds 16 --trace 0
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/../.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
go build -o "$build/bench" ./cmd/bench
exec "$build/bench" "$@"
