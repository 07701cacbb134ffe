#!/usr/bin/env bash
# profile.sh — CPU and allocation profiles of the 3-user speculation-off
# replay (BenchmarkNormalReplay in bench_layers_test.go: the benchmark's
# normal_replay workload as a `go test -bench` target, since cmd/bench carries
# no profiling hook).
#
# Writes cpu.pprof, mem.pprof and the test binary into the git-ignored
# profiles/ directory and prints the top of each. -memprofilerate=4096 samples
# allocations finely enough to rank per-row sites.
#
# Usage: scripts/profile.sh [passes]     # replay passes, default 10
set -euo pipefail
cd "$(dirname "$0")/.."

passes="${1:-10}"
out="profiles"
mkdir -p "$out"

go test -run '^$' -bench '^BenchmarkNormalReplay$' -benchtime="${passes}x" -benchmem \
  -o "$out/specdb.test" -cpuprofile "$out/cpu.pprof" -memprofile "$out/mem.pprof" \
  -memprofilerate 4096 .

echo "== CPU: top 25 =="
go tool pprof -top -nodecount=25 "$out/specdb.test" "$out/cpu.pprof" 2>/dev/null | tail -n +6
echo "== allocated bytes: top 25 =="
go tool pprof -sample_index=alloc_space -top -nodecount=25 "$out/specdb.test" "$out/mem.pprof" 2>/dev/null | tail -n +6
echo "profiles written to $out/ (go tool pprof $out/specdb.test $out/cpu.pprof)"
