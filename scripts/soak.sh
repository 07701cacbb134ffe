#!/usr/bin/env bash
# soak.sh — full combined-fault chaos soak (DESIGN.md §13).
#
# Runs harness.RunChaosSoak at its full 256-session shape: scaled sessions in
# batches under simultaneous read/write/corruption/slow-IO faults, an
# undersized governed buffer pool, and durable batches with a crash injected
# at a seeded file write followed by WAL recovery and a full re-run. The run
# is seeded and deterministic; any invariant violation (quiesce identity,
# charged-once waste, pool misuses, undrained registries, answer divergence
# from the fault-free reference) fails the test.
#
# Then it fuzzes the job lifecycle (DESIGN.md §16): FuzzLifecycle's native
# fuzzer mutates its seeded programs for ten minutes, every input held to the
# reference model after every step. For another length, run that go test line
# by hand with its own -fuzztime.
#
# CI runs the 64-session short shape of the soak and FuzzLifecycle's seed
# corpus on every push; this script is the long-form local/nightly entry
# point.
#
# Usage: scripts/soak.sh [extra go test args for the chaos soak...]
set -euo pipefail

cd "$(dirname "$0")/.."
SOAK=1 go test ./internal/harness -run '^TestChaosSoak$' -race -count=1 -v -timeout 60m "$@"
go test ./internal/core -run '^$' -fuzz '^FuzzLifecycle$' -parallel 2 \
	-fuzztime 10m
