#!/usr/bin/env bash
# bench_gate.sh — CI bench-regression gate.
#
# Regenerates BENCH_spec.json with cmd/experiments -exp bench, at the scale,
# users, corpus seed, data seed and scaled-session count the baseline records,
# and compares the result with the committed file byte for byte. Every field
# is simulated time or a count of a deterministic replay, so it does not
# depend on the machine: any difference is a behaviour change, and a change
# that means it re-records the file with the same command.
#
# Then runs the executor's layer benchmarks (bench_layers_test.go: scan,
# filter, hash-join build/probe, a two-edge hash join, index-NL probe,
# DecodeRowInto, pool miss, B+-tree lookup, one whole RunQuery through the
# statement boundary, a served GO at two answer sizes, which must allocate the
# same, the four builds — a speculative Materialize, ANALYZE of lineitem,
# CREATE INDEX on lineitem.l_partkey, a histogram on lineitem.l_extendedprice
# — whose statistics and keys must not cost an allocation per value, whose
# sorts of 8-byte key images are linear-time radix sorts (internal/radix), and
# whose sets, sort input, sort scratch and freed pages come back from the
# slabs warm, and last the whole set-up at 100MB, harness.NewEnv, in a go test
# process of its own: the heap it grows would otherwise show as an allocation
# in whichever benchmark follows it) and gates their allocations and B/op
# against BENCH_allocs.txt. Both are counts of a deterministic program on a pool that
# holds its data, so they do not depend on the machine, provided three things
# are held still:
#   - the allocations compared are the undivided total of the ten measured
#     passes (the "allocs" metric), not testing's allocs/op, which is that
#     total divided by ten and rounded down: one allocation more moved
#     BenchmarkLayerIndexBuild between 488 and 489 allocs/op while the code
#     stood still;
#   - the passes run with the collector off (GOGC=off; the testing package
#     still collects between benchmarks, peak RSS ≈ 105 MB): a pass during
#     which a GC cycle runs allocates 2–3 objects more (one Materialize: 3778
#     without a cycle, 3780–3781 with one), and a cycle also empties the
#     slabs (internal/slab) that recycled memory waits in;
#   - they run on one P (-cpu 1): the slabs are per P, so on two a pass the
#     scheduler moves to the other P misses what the first P holds and
#     allocates it again, and the count would say how often that happened.
# A baseline line may end in an allowance, "±N": the total may then differ
# by N, for a line measured to move between identical runs (the reason is in
# EXPERIMENTS.md). B/op may differ by 1% + 1 KiB, because the runtime's own
# occasional allocations land inside the window. ns/op is printed for
# information, and so are the *Parallel variants (wall time of overlapping
# sessions on every P, nothing deterministic to gate), which run apart; a
# benchmark the baseline does not list is reported and skipped, and a missing
# BENCH_allocs.txt skips the whole gate.
#
# Usage: scripts/bench_gate.sh [baseline.json]
#        scripts/bench_gate.sh --write-allocs   # re-record BENCH_allocs.txt
set -euo pipefail

allocs_file="BENCH_allocs.txt"

# layer_table — run the gated layer benchmarks on one P with the collector
# off, BenchmarkLayerSetup alone after the rest, and print "name allocs B/op
# ns/op", allocs being the ten passes' total.
layer_table() {
  {
    GOGC=off go test -run '^$' -cpu 1 -skip 'Parallel$|^BenchmarkLayerSetup$' -bench '^BenchmarkLayer' -benchmem -benchtime=10x . &&
      GOGC=off go test -run '^$' -cpu 1 -bench '^BenchmarkLayerSetup$' -benchmem -benchtime=10x .
  } | awk '
    /^BenchmarkLayer/ {
      name = $1; sub(/-[0-9]+$/, "", name)
      for (i = 2; i <= NF; i++) {
        if ($i == "ns/op") ns = $(i-1)
        if ($i == "B/op") bytes = $(i-1)
        if ($i == "allocs") allocs = $(i-1) + 0
      }
      print name, allocs, bytes, ns
    }'
}

if [[ "${1:-}" == "--write-allocs" ]]; then
  live=$(layer_table)
  {
    echo "# Allocations (undivided total of the ten measured passes) and B/op of each"
    echo "# BenchmarkLayer* (bench_layers_test.go), on one P with the collector off;"
    echo "# gated by scripts/bench_gate.sh, re-recorded with scripts/bench_gate.sh --write-allocs,"
    echo "# which keeps each line's allowance."
    echo "# name allocs B/op [±allowed difference in allocs]"
    echo "$live" | awk -v file="$allocs_file" '
      BEGIN {
        while ((getline line < file) > 0) {
          if (line ~ /^#/ || line == "") continue
          split(line, f, " "); if (f[4] != "") allow[f[1]] = f[4]
        }
      }
      { print $1, $2, $3 ($1 in allow ? " " allow[$1] : "") }'
  } > "$allocs_file.new"
  mv "$allocs_file.new" "$allocs_file"
  cat "$allocs_file"
  exit 0
fi

baseline_file="${1:-BENCH_spec.json}"

if [[ ! -f "$baseline_file" ]]; then
  echo "bench_gate: baseline $baseline_file not found" >&2
  exit 1
fi

# param <field> — a field of the baseline, unquoted.
param() {
  awk -F': *' -v f="\"$1\"" '{ k = $1; gsub(/ /, "", k) } k == f { gsub(/[ ,"]/, "", $2); print $2; exit }' "$baseline_file"
}

live=$(mktemp)
trap 'rm -f "$live"' EXIT
echo "bench_gate: regenerating $baseline_file with cmd/experiments -exp bench..."
go run ./cmd/experiments -exp bench -scales "$(param scale)" -users "$(param users)" \
  -seed "$(param seed)" -dataseed "$(param data_seed)" -scaledsessions "$(param scaled_sessions)" -benchout "$live"
if ! cmp -s "$baseline_file" "$live"; then
  echo "bench_gate: FAIL — cmd/experiments no longer writes $baseline_file; the lines that differ (< baseline, > now):" >&2
  diff "$baseline_file" "$live" >&2 || true
  exit 1
fi
echo "bench_gate: $baseline_file reproduced byte for byte"

if [[ -f "$allocs_file" ]]; then
  echo "bench_gate: running the layer benchmarks (benchtime=10x, one P)..."
  live_layers=$(layer_table)
  if [[ -z "$live_layers" ]]; then
    echo "bench_gate: FAIL — the layer benchmarks produced no result" >&2
    exit 1
  fi
  echo "$live_layers" | awk -v file="$allocs_file" '
    BEGIN {
      while ((getline line < file) > 0) {
        if (line ~ /^#/ || line == "") continue
        split(line, f, " "); base_allocs[f[1]] = f[2]; base_bytes[f[1]] = f[3]
        a = f[4]; gsub(/[^0-9]/, "", a); allow[f[1]] = a + 0
      }
    }
    {
      seen[$1] = 1
      if (!($1 in base_allocs)) {
        printf "bench_gate: %s not in %s; skipping (allocs=%s B/op=%s ns/op=%s)\n", $1, file, $2, $3, $4
        next
      }
      da = $2 - base_allocs[$1]; if (da < 0) da = -da
      db = $3 - base_bytes[$1]; if (db < 0) db = -db
      ok = (da <= allow[$1]) && (db <= base_bytes[$1] * 0.01 + 1024)
      printf "bench_gate: %s allocs live=%s baseline=%s%s  B/op live=%s baseline=%s  ns/op=%s (informational)%s\n",
        $1, $2, base_allocs[$1], allow[$1] ? " ±" allow[$1] : "", $3, base_bytes[$1], $4, ok ? "" : "  <-- FAIL"
      if (!ok) bad = 1
    }
    END {
      for (name in base_allocs) if (!(name in seen)) {
        printf "bench_gate: %s is in %s but did not run  <-- FAIL\n", name, file; bad = 1
      }
      exit bad
    }' || {
    echo "bench_gate: FAIL — layer allocations moved; if intended, re-record with scripts/bench_gate.sh --write-allocs" >&2
    exit 1
  }
  echo "bench_gate: the *Parallel layer benchmarks, on every P (informational):"
  go test -run '^$' -bench '^BenchmarkLayer.*Parallel$' -benchmem -benchtime=10x . | grep '^BenchmarkLayer' || true
else
  echo "bench_gate: no $allocs_file; skipping the layer allocation gate" >&2
fi

echo "bench_gate: OK"
