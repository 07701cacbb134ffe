#!/usr/bin/env bash
# bench_gate.sh — CI bench-regression gate.
#
# Replays the spec-on vs spec-off benchmark (go test -bench -benchtime=1x)
# and diffs the live improvement metric against the committed baseline in
# BENCH_spec.json, failing on a drift beyond ±TOLERANCE_PP percentage points.
# The improvement metric is simulated time, so it is machine-independent: any
# drift is a real behavior change, not noise.
#
# The same replay's prediction pass is gated too: the predicted-GO rate
# (±TOLERANCE_PP), zero answers differing from the speculation-off oracle, and
# the executed predictions the answer cache refused, count and seconds, exactly.
#
# Also replays the 64-session cross-session CSE benchmark and gates its waste
# reduction (±TOLERANCE_PP) and dedup savings (±1% relative) against the
# baseline, requiring at least one shared (deduplicated) build.
#
# Also runs the executor's layer benchmarks (bench_layers_test.go: scan,
# filter, hash-join build/probe, a two-edge hash join, index-NL probe,
# DecodeRowInto, pool miss, B+-tree lookup, one whole RunQuery through the
# statement boundary, a served GO at two answer sizes, which must allocate the
# same, and the four builds — a speculative Materialize, ANALYZE of lineitem,
# CREATE INDEX on lineitem.l_partkey, a histogram on lineitem.l_extendedprice
# — whose statistics and keys must not cost an allocation per value, whose
# sorts of 8-byte key images are linear-time radix sorts (internal/radix), and
# whose sets, sort input, sort scratch and freed pages come back from the
# slabs warm) and gates their allocations and B/op against
# BENCH_allocs.txt. Both are counts of a deterministic program on a pool that
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
# off and print "name allocs B/op ns/op", allocs being the ten passes' total.
layer_table() {
  GOGC=off go test -run '^$' -cpu 1 -skip 'Parallel$' -bench '^BenchmarkLayer' -benchmem -benchtime=10x . | awk '
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
tolerance_pp="${TOLERANCE_PP:-1.0}"

if [[ ! -f "$baseline_file" ]]; then
  echo "bench_gate: baseline $baseline_file not found" >&2
  exit 1
fi

# json_num <field> — pull a bare numeric field out of the baseline JSON.
json_num() {
  awk -F': *' -v f="\"$1\"" '$1 ~ f {gsub(/[ ,]/, "", $2); print $2; exit}' "$baseline_file"
}

# metric <benchmark output> <unit> — value preceding a go-bench metric unit.
metric() {
  echo "$1" | awk -v u="$2" '{
    for (i = 2; i <= NF; i++) if ($i == u) { print $(i-1); exit }
  }'
}

# within_pp <live> <base> <tolerance> — absolute difference check.
within_pp() {
  awk -v live="$1" -v base="$2" -v tol="$3" 'BEGIN {
    d = live - base; if (d < 0) d = -d
    exit !(d <= tol)
  }'
}

baseline=$(json_num improvement_pct)
if [[ -z "$baseline" ]]; then
  echo "bench_gate: no improvement_pct in $baseline_file" >&2
  exit 1
fi

echo "bench_gate: running BenchmarkSpecBench (benchtime=1x)..."
out=$(go test -run '^$' -bench '^BenchmarkSpecBench$' -benchtime=1x .)
echo "$out"

live=$(metric "$out" "improvement_%")
if [[ -z "$live" ]]; then
  echo "bench_gate: benchmark produced no improvement_% metric" >&2
  exit 1
fi

echo "bench_gate: improvement live=${live}% baseline=${baseline}% tolerance=±${tolerance_pp}pp"
within_pp "$live" "$baseline" "$tolerance_pp" || {
  echo "bench_gate: FAIL — improvement metric drifted more than ${tolerance_pp}pp from baseline" >&2
  exit 1
}

# Whole-query prediction gate: the predicted-GO rate must stay within
# ±TOLERANCE_PP percentage points of the baseline, at least one GO must be
# answered from a predicted final, and every answer of the prediction replay
# must equal the speculation-off oracle's (a served GO executes nothing, so
# that replay is the only check). Skipped for baselines written before the
# predictor.
base_predgo=$(json_num predicted_go_rate)
if [[ -n "$base_predgo" ]]; then
  live_predgo=$(metric "$out" "predicted_go_rate")
  live_equiv=$(metric "$out" "equiv_failures")
  if [[ -z "$live_predgo" || -z "$live_equiv" ]]; then
    echo "bench_gate: benchmark produced no prediction metrics" >&2
    exit 1
  fi

  live_predgo_pp=$(awk -v r="$live_predgo" 'BEGIN { printf "%.6f", r * 100 }')
  base_predgo_pp=$(awk -v r="$base_predgo" 'BEGIN { printf "%.6f", r * 100 }')
  echo "bench_gate: predicted GO rate live=${live_predgo_pp}% baseline=${base_predgo_pp}% tolerance=±${tolerance_pp}pp"
  within_pp "$live_predgo_pp" "$base_predgo_pp" "$tolerance_pp" || {
    echo "bench_gate: FAIL — predicted GO rate drifted more than ${tolerance_pp}pp from baseline" >&2
    exit 1
  }

  awk -v n="$live_predgo" 'BEGIN { exit !(n + 0 > 0) }' || {
    echo "bench_gate: FAIL — no GO was answered from a predicted final (predicted_go_rate=${live_predgo})" >&2
    exit 1
  }

  awk -v n="$live_equiv" 'BEGIN { exit !(n + 0 == 0) }' || {
    echo "bench_gate: FAIL — prediction-replay answers differ from the speculation-off oracle (equiv_failures=${live_equiv})" >&2
    exit 1
  }
else
  echo "bench_gate: baseline has no prediction metrics; skipping prediction gate" >&2
fi

# Predictions the answer cache could never hold (DESIGN.md §14): how many of
# the prediction replay's executed finals the cache refused, and the simulated
# seconds they took — 0 since the admission walk skips such finals. Both are
# counts of a deterministic replay, so
# both must equal the baseline — the seconds to the precision the benchmark
# prints them. Skipped for baselines written before the count.
base_unhold=$(json_num predicted_unholdable)
base_unhold_s=$(json_num predicted_unholdable_s)
if [[ -n "$base_unhold" && -n "$base_unhold_s" ]]; then
  live_unhold=$(metric "$out" "unholdable")
  live_unhold_s=$(metric "$out" "unholdable_s")
  if [[ -z "$live_unhold" || -z "$live_unhold_s" ]]; then
    echo "bench_gate: benchmark produced no unholdable-prediction metrics" >&2
    exit 1
  fi
  echo "bench_gate: unholdable predictions live=${live_unhold} (${live_unhold_s}s) baseline=${base_unhold} (${base_unhold_s}s), exact"
  awk -v l="$live_unhold" -v b="$base_unhold" -v ls="$live_unhold_s" -v bs="$base_unhold_s" 'BEGIN {
    d = index(ls, ".") ? length(ls) - index(ls, ".") : 0
    exit !(l + 0 == b + 0 && ls == sprintf("%." d "f", bs))
  }' || {
    echo "bench_gate: FAIL — unholdable predictions moved from the baseline" >&2
    exit 1
  }
else
  echo "bench_gate: baseline has no unholdable-prediction metrics; skipping that gate" >&2
fi

base_waste_red=$(json_num scaled_waste_reduction_pct)
base_dedup=$(json_num dedup_saved_s)
if [[ -n "$base_waste_red" && -n "$base_dedup" ]]; then
  echo "bench_gate: running BenchmarkScaledCSE (benchtime=1x)..."
  scaled=$(go test -run '^$' -bench '^BenchmarkScaledCSE$' -benchtime=1x .)
  echo "$scaled"

  live_waste_red=$(metric "$scaled" "waste_reduction_%")
  live_shared=$(metric "$scaled" "shared_builds")
  live_dedup=$(metric "$scaled" "dedup_saved_s")
  if [[ -z "$live_waste_red" || -z "$live_shared" || -z "$live_dedup" ]]; then
    echo "bench_gate: scaled benchmark produced no CSE metrics" >&2
    exit 1
  fi

  echo "bench_gate: scaled waste reduction live=${live_waste_red}% baseline=${base_waste_red}% tolerance=±${tolerance_pp}pp"
  within_pp "$live_waste_red" "$base_waste_red" "$tolerance_pp" || {
    echo "bench_gate: FAIL — scaled waste reduction drifted more than ${tolerance_pp}pp from baseline" >&2
    exit 1
  }

  awk -v n="$live_shared" 'BEGIN { exit !(n + 0 >= 1) }' || {
    echo "bench_gate: FAIL — cross-session CSE deduplicated no builds (shared_builds=${live_shared})" >&2
    exit 1
  }

  # dedup_saved_s is simulated seconds, so compare relatively: ±1% of baseline.
  echo "bench_gate: dedup saved live=${live_dedup}s baseline=${base_dedup}s tolerance=±1%"
  awk -v live="$live_dedup" -v base="$base_dedup" 'BEGIN {
    d = live - base; if (d < 0) d = -d
    exit !(d <= base * 0.01)
  }' || {
    echo "bench_gate: FAIL — dedup_saved_s drifted more than 1% from baseline" >&2
    exit 1
  }
else
  echo "bench_gate: baseline has no scaled CSE metrics; skipping scaled gate" >&2
fi

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
