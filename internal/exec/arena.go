package exec

import "specdb/internal/tuple"

// rowArena is where an operator keeps the rows it retains past the Next call
// that produced them: the hash-join build side and Collect's answer (the
// cross-join inner side is a Collect). The rows of one stream all have the
// stream's width, so they are copied back to back into large []tuple.Value
// chunks — one allocation per chunk instead of one per row — and get their
// slice headers only once the stream has ended and their number is known:
// rows cuts one []tuple.Row of exact length out of the chunks, where a slice
// appended to row by row would have been reallocated at every doubling. The
// whole arena is dropped at once, by zeroing it at the operator's Close
// (DESIGN.md §15); rows someone still holds keep their chunks alive.
type rowArena struct {
	width  int           // values per row; set before the first keep
	n      int           // rows kept
	free   []tuple.Value // unused tail of the newest chunk
	chunk  int           // size of the newest chunk, in values
	chunks int           // chunks allocated
	// The chunks, oldest first: the first arenaInlineChunks of them (20224
	// values) are listed in the arena itself, so only a larger side pays for
	// a list that grows.
	first [arenaInlineChunks][]tuple.Value
	more  [][]tuple.Value
}

// Chunks double from arenaMinChunk to arenaMaxChunk values (24 bytes each): a
// three-row build side costs 6 KB, and the unused tail that an answer kept
// in a cache drags along stays under 96 KB. The sizes are in values, not
// bytes, so the number of chunks a statement allocates does not depend on
// what a value costs.
const (
	arenaMinChunk     = 256
	arenaMaxChunk     = 4096
	arenaInlineChunks = 8
)

// keep copies r, which must be a.width values wide, to the end of the arena.
func (a *rowArena) keep(r tuple.Row) {
	if len(r) != a.width {
		// invariant: every operator produces rows of its schema's width, and
		// the arena's width is the schema's; rows cuts the chunks by it.
		panic("exec: row width differs from its stream's schema")
	}
	if a.width > len(a.free) {
		a.chunk = min(max(2*a.chunk, arenaMinChunk), arenaMaxChunk)
		a.free = make([]tuple.Value, max(a.chunk, a.width))
		if a.chunks < len(a.first) {
			a.first[a.chunks] = a.free
		} else {
			a.more = append(a.more, a.free)
		}
		a.chunks++
	}
	copy(a.free, r)
	a.free = a.free[a.width:]
	a.n++
}

// rows returns the kept rows in the order they were kept, as one slice of
// exactly their number; nil when none was kept. Every row's capacity is
// clipped, so appending to one cannot write into its neighbour. Rows of width
// zero are nil, as a copy of an empty row always was.
func (a *rowArena) rows() []tuple.Row {
	if a.n == 0 {
		return nil
	}
	out := make([]tuple.Row, a.n)
	if a.width == 0 {
		return out
	}
	i := 0
	for k := 0; k < a.chunks; k++ {
		var c []tuple.Value
		if k < len(a.first) {
			c = a.first[k]
		} else {
			c = a.more[k-len(a.first)]
		}
		// A chunk was left for the next one when it had no room for a row.
		for ; i < a.n && len(c) >= a.width; i++ {
			out[i] = c[:a.width:a.width]
			c = c[a.width:]
		}
	}
	return out
}
