package exec

import (
	"math/bits"

	"specdb/internal/slab"
	"specdb/internal/tuple"
)

// rowArena is where an operator keeps the rows it retains past the Next call
// that produced them: the hash-join build side, the cross-join inner side and
// Collect's answer. The rows of one stream all have the stream's width, so
// they are copied back to back into large []tuple.Value chunks — one chunk
// instead of one allocation per row — and get their slice headers only once
// the stream has ended and their number is known: rows cuts one []tuple.Row
// of exact length out of the chunks, where a slice appended to row by row
// would have been reallocated at every doubling.
//
// Who owns the memory decides where it comes from (DESIGN.md §15). The join
// operators set recycle: their kept rows never leave them — every row they
// lend is their own output row — so the chunks and the header block are taken
// from the slabs below and given back by release at the operator's Close, for
// the next statement's joins. Collect does not: its rows leave in the answer,
// which a caller or the AnswerCache may hold for as long as it likes, so its
// chunks are fresh and live exactly as long as the rows that point into them.
type rowArena struct {
	width   int           // values per row; set before the first keep
	recycle bool          // chunks and header block come from the slabs and go back at release
	n       int           // rows kept
	free    []tuple.Value // unused tail of the newest chunk
	chunk   int           // size of the newest chunk, in values
	chunks  int           // chunks taken
	// The chunks, oldest first: the first arenaInlineChunks of them (20224
	// values) are listed in the arena itself, so only a larger side pays for
	// a list that grows.
	first [arenaInlineChunks][]tuple.Value
	more  [][]tuple.Value
	block []tuple.Row // the header block rows cut, when recycled
}

// Chunks double from arenaMinChunk to arenaMaxChunk values (16 bytes each): a
// three-row build side costs 4 KB, and the unused tail that an answer kept
// in a cache drags along stays under 64 KB. The sizes are in values, not
// bytes, so the number of chunks a statement takes does not depend on what a
// value costs.
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
	copy(a.next(), r)
	a.commit()
}

// keepLive copies the columns in live of r to the end of the arena, back to
// back, a.width being keptWidth(live, len(r)). A pruned row carries its
// stored length (Iterator.StoredLen) after them as one more value: a join
// keeps only some columns of it, and still charges its spill by the whole
// record. A whole row needs none, since its length is EncodedSize of itself,
// so a join whose rows are all read keeps them whole and nothing else.
func (a *rowArena) keepLive(r tuple.Row, live tuple.ColSet, stored int) {
	if live == tuple.AllCols {
		a.keep(r)
		return
	}
	dst := a.next()
	gather(dst, r, live)
	dst[len(dst)-1] = tuple.NewInt(int64(stored))
	a.commit()
}

// keptWidth is the width of a row of n columns kept by keepLive.
func keptWidth(live tuple.ColSet, n int) int {
	if live == tuple.AllCols {
		return n
	}
	return live.Count(n) + 1
}

// storedLen is the stored length of a row of schema s that keepLive kept
// with live.
func storedLen(kept tuple.Row, s *tuple.Schema, live tuple.ColSet) int {
	if live == tuple.AllCols {
		return tuple.EncodedSize(s, kept)
	}
	return int(kept[len(kept)-1].Int())
}

// next returns the place of the next row, taking a chunk when the newest has
// no room for one; commit keeps what was written there.
func (a *rowArena) next() tuple.Row {
	if a.width > len(a.free) {
		a.chunk = min(max(2*a.chunk, arenaMinChunk), arenaMaxChunk)
		if size := max(a.chunk, a.width); a.recycle {
			a.free = valueSlabs.Take(size)
		} else {
			a.free = make([]tuple.Value, size)
		}
		if a.chunks < len(a.first) {
			a.first[a.chunks] = a.free
		} else {
			a.more = append(a.more, a.free)
		}
		a.chunks++
	}
	return a.free[:a.width:a.width]
}

// room is the place of the next row if the newest chunk has one, else nil.
func (a *rowArena) room() tuple.Row {
	if a.width > len(a.free) {
		return nil
	}
	return a.free[:a.width:a.width]
}

// commit keeps the row written at the place next or room returned.
func (a *rowArena) commit() {
	a.free = a.free[a.width:]
	a.n++
}

// drain keeps every row of it, which Drain opens and closes.
func (a *rowArena) drain(it Iterator) error {
	return Drain(it, func(r tuple.Row) error {
		a.keep(r)
		return nil
	})
}

// collect keeps every row of p, which it opens and closes, each written by p
// where it is kept. Only the first row of a chunk goes through p's own row
// first: the chunk is taken once a row needs it, so an empty answer takes
// none.
func (a *rowArena) collect(p *Project) error {
	return run(p, func() (bool, error) {
		if dst := a.room(); dst != nil {
			ok, err := p.nextInto(dst)
			if ok && err == nil {
				a.commit()
			}
			return ok, err
		}
		ok, err := p.nextInto(p.out)
		if ok && err == nil {
			a.keep(p.out)
		}
		return ok, err
	})
}

// chunkAt returns the k-th chunk taken.
func (a *rowArena) chunkAt(k int) []tuple.Value {
	if k < len(a.first) {
		return a.first[k]
	}
	return a.more[k-len(a.first)]
}

// rows returns the kept rows in the order they were kept, as one slice of
// exactly their number; nil when none was kept. Every row's capacity is
// clipped, so appending to one cannot write into its neighbour. Rows of width
// zero are nil, as a copy of an empty row always was. It is called once, when
// the stream has ended.
func (a *rowArena) rows() []tuple.Row {
	if a.n == 0 {
		return nil
	}
	var out []tuple.Row
	if a.recycle {
		out = rowSlabs.Take(a.n)
		a.block = out
	} else {
		out = make([]tuple.Row, a.n)
	}
	if a.width == 0 {
		clear(out) // a recycled block holds its last user's headers
		return out
	}
	i := 0
	for k := 0; k < a.chunks; k++ {
		// A chunk was left for the next one when it had no room for a row.
		for c := a.chunkAt(k); i < a.n && len(c) >= a.width; i++ {
			out[i] = c[:a.width:a.width]
			c = c[a.width:]
		}
	}
	return out
}

// release empties the arena at its operator's Close, giving a recycled
// arena's chunks and header block back to their slabs: no row it handed out
// may be read afterwards. Releasing an empty arena does nothing, so Close may
// run after a failed Open and more than once.
func (a *rowArena) release() {
	if a.recycle {
		for k := 0; k < a.chunks; k++ {
			valueSlabs.Give(a.chunkAt(k))
		}
		if a.block != nil {
			rowSlabs.Give(a.block)
		}
	}
	*a = rowArena{}
}

// gather copies the columns in live of src to dst, back to back.
func gather(dst, src tuple.Row, live tuple.ColSet) {
	if live == tuple.AllCols {
		copy(dst, src)
		return
	}
	k := 0
	for m := uint64(live); m != 0; m &= m - 1 {
		dst[k] = src[bits.TrailingZeros64(m)]
		k++
	}
}

// spread is gather's inverse: dst's columns in live are src's values, in
// order.
func spread(dst, src tuple.Row, live tuple.ColSet) {
	if live == tuple.AllCols {
		copy(dst, src)
		return
	}
	k := 0
	for m := uint64(live); m != 0; m &= m - 1 {
		dst[bits.TrailingZeros64(m)] = src[k]
		k++
	}
}

// copyLive copies the columns in live of src to the same places of dst.
func copyLive(dst, src tuple.Row, live tuple.ColSet) {
	if live == tuple.AllCols {
		copy(dst, src)
		return
	}
	for m := uint64(live); m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		dst[i] = src[i]
	}
}

// The classes only the executor uses; join-table key images and IndexScan's
// RID lists share slab.Uint64s with the statistics sets.
var (
	valueSlabs slab.Classes[tuple.Value]
	rowSlabs   slab.Classes[tuple.Row]
	int32Slabs slab.Classes[int32]
)
