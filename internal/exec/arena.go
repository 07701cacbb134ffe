package exec

import "specdb/internal/tuple"

// rowArena is where an operator keeps the rows it retains past the Next call
// that produced them: the hash-join build side, the cross-join inner side,
// Collect's answer. Rows are copied once into large []tuple.Value chunks —
// one allocation per chunk instead of one per row — and the whole arena is
// dropped at once, by zeroing it at the operator's Close (DESIGN.md §15); rows
// someone still holds keep their chunks alive.
type rowArena struct {
	free  []tuple.Value // unused tail of the newest chunk
	chunk int           // size of the newest chunk, in values
}

// Chunks double from arenaMinChunk to arenaMaxChunk values (24 bytes each): a
// three-row build side costs 6 KB, and the unused tail that an answer kept
// in a cache drags along stays under 96 KB. The sizes are in values, not
// bytes, so the number of chunks a statement allocates does not depend on
// what a value costs.
const (
	arenaMinChunk = 256
	arenaMaxChunk = 4096
)

// keep copies r into the arena and returns the copy. Its capacity is clipped,
// so appending to a kept row cannot write into its neighbour.
func (a *rowArena) keep(r tuple.Row) tuple.Row {
	n := len(r)
	if n > len(a.free) {
		a.chunk = min(max(2*a.chunk, arenaMinChunk), arenaMaxChunk)
		a.free = make([]tuple.Value, max(a.chunk, n))
	}
	out := a.free[:n:n]
	a.free = a.free[n:]
	copy(out, r)
	return out
}
