#!/usr/bin/env bash
# scripts/lint.sh — the speclint gate, exactly as CI runs it, so local runs
# and CI cannot drift (DESIGN.md §9).
#
# Six passes over the whole module:
#   1. text findings (the human-facing gate; nonzero exit on any finding),
#      under a 120 s budget so call-graph construction cost cannot silently
#      balloon;
#   2. -json findings written to speclint.json (CI uploads it as an artifact
#      when the gate fails);
#   3. -allows audit listing every suppression directive with its reason;
#   4. unsafe stays where tuple.Value's string payload is built and read:
#      no non-test .go file but internal/tuple/value.go may import it
#      (DESIGN.md §15, "What a value costs");
#   5. recycling has one mechanism: no non-test .go file but
#      internal/slab/slab.go may name sync.Pool (DESIGN.md §15, "Slabs");
#   6. internal/golden, which the passes above exempt as test scaffolding, is
#      imported by _test.go files only.
#
# Usage: scripts/lint.sh [output.json]
set -u
cd "$(dirname "$0")/.."

out_json="${1:-speclint.json}"

# Budget includes compiling the linter itself; 120 s is ~10x the current
# full-repo wall time, so a trip means a real cost regression.
echo "== speclint (budget 120s) =="
timeout 120 go run ./cmd/speclint ./...
status=$?
if [ "$status" -eq 124 ]; then
    echo "speclint exceeded its 120 s budget — call-graph construction cost has ballooned" >&2
    exit 124
fi

echo "== speclint -json -> ${out_json} =="
timeout 120 go run ./cmd/speclint -json ./... > "$out_json"
json_status=$?
if [ "$json_status" -ne 0 ] && [ "$json_status" -ne 1 ]; then
    echo "speclint -json failed (exit $json_status)" >&2
    exit "$json_status"
fi

echo "== speclint -allows =="
timeout 120 go run ./cmd/speclint -allows ./... || exit $?

echo "== unsafe imports =="
offenders=$(grep -rlE '^[[:space:]]*(import[[:space:]]+)?([[:alnum:]_.]+[[:space:]]+)?"unsafe"' --include='*.go' . |
    grep -vE '_test\.go$|/testdata/|^\./internal/tuple/value\.go$')
if [ -n "$offenders" ]; then
    echo "unsafe imported outside internal/tuple/value.go:" >&2
    echo "$offenders" >&2
    exit 1
fi

echo "== sync.Pool =="
offenders=$(grep -rlE 'sync\.Pool' --include='*.go' . |
    grep -vE '_test\.go$|/testdata/|^\./internal/slab/slab\.go$')
if [ -n "$offenders" ]; then
    echo "sync.Pool named outside internal/slab/slab.go:" >&2
    echo "$offenders" >&2
    exit 1
fi

echo "== internal/golden imports =="
offenders=$(grep -rl '"specdb/internal/golden"' --include='*.go' . | grep -vE '_test\.go$')
if [ -n "$offenders" ]; then
    echo "internal/golden imported outside tests:" >&2
    echo "$offenders" >&2
    exit 1
fi

exit "$status"
