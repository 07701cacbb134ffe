#!/usr/bin/env bash
# profile.sh — CPU and allocation profiles of one replay of the 3-user corpus,
# or of the set-up before it. cmd/bench carries no profiling hook, so each
# replay workload of BENCHMARK.json has a `go test -bench` twin in
# bench_layers_test.go (same dataset, corpus 7, 46-page pool, cold start per
# trace), and so does the set-up every workload times as setup_s:
#
#   normal   BenchmarkNormalReplay   mirrors normal_replay: speculation off —
#            plan, exec, tuple, buffer, storage; the GO path.
#   spec     BenchmarkSpecReplay     mirrors spec_replay: core.DefaultConfig(),
#            fresh learner per trace — the edit path (OnEvent, Complete,
#            engine.Materialize) beside the GOs.
#   predict  BenchmarkPredictReplay  mirrors predict_replay: shared predictor,
#            answer cache and learner, after one untimed training pass.
#   setup    BenchmarkLayerSetup     mirrors setup_s: harness.NewEnv at 100MB
#            on the 46-page pool — load, ANALYZE, every index and histogram
#            tpch.Load builds; one pass is one environment.
#
# concurrent_hot has no twin here; BenchmarkLayerRunQueryParallel is its
# nearest `go test -bench` target.
#
# Writes cpu.pprof, mem.pprof and the test binary into the git-ignored
# profiles/ directory and prints the top of each: CPU, then allocated bytes,
# then allocation counts (a site that makes many small objects, such as the
# planner's, ranks low by bytes and high by count). -memprofilerate=4096
# samples allocations finely enough to rank per-row sites.
#
# Usage: scripts/profile.sh [replay] [passes]   # replay: normal (default), spec, predict, setup; passes default 10
#        scripts/profile.sh 5                   # five passes of the normal replay
set -euo pipefail
cd "$(dirname "$0")/.."

replay="normal"
if [[ "${1:-}" =~ ^(normal|spec|predict|setup)$ ]]; then
  replay="$1"
  shift
fi
passes="${1:-10}"
case "$replay" in
  normal) bench="BenchmarkNormalReplay" ;;
  spec) bench="BenchmarkSpecReplay" ;;
  predict) bench="BenchmarkPredictReplay" ;;
  setup) bench="BenchmarkLayerSetup" ;;
esac
out="profiles"
mkdir -p "$out"

go test -run '^$' -bench "^${bench}\$" -benchtime="${passes}x" -benchmem \
  -o "$out/specdb.test" -cpuprofile "$out/cpu.pprof" -memprofile "$out/mem.pprof" \
  -memprofilerate 4096 .

echo "== CPU: top 25 =="
go tool pprof -top -nodecount=25 "$out/specdb.test" "$out/cpu.pprof" 2>/dev/null | tail -n +6
echo "== allocated bytes: top 25 =="
go tool pprof -sample_index=alloc_space -top -nodecount=25 "$out/specdb.test" "$out/mem.pprof" 2>/dev/null | tail -n +6
echo "== allocation counts: top 25 =="
go tool pprof -sample_index=alloc_objects -top -nodecount=25 "$out/specdb.test" "$out/mem.pprof" 2>/dev/null | tail -n +6
echo "profiles written to $out/ (go tool pprof $out/specdb.test $out/cpu.pprof)"
