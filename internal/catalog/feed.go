package catalog

import (
	"fmt"

	"specdb/internal/btree"
	"specdb/internal/slab"
	"specdb/internal/stats"
	"specdb/internal/storage"
	"specdb/internal/tuple"
)

// Feed gathers, one row at a time, what preparing a table reads of its rows —
// its statistics, its indexes and its histograms (DESIGN.md §15, "What a
// set-up costs") — from whoever holds the rows: a load as it stores them, or
// one scan of the heap. A numeric column gathers its key images in a
// stats.Images, keyed with each row's RID beside its image; the one sort of
// them gives the column's statistics, its histogram and its index. A string
// column gathers a stats.Collector and, keyed, its index entries.
//
// A feed holds slab memory until Release. Its builds read what it gathered
// and never the heap, so a feed handed to a statement must hold every row of
// the table, in heap order: Check says whether it does.
type Feed struct {
	t    *Table
	rows int64
	cols []fedColumn // by ordinal
}

// fedColumn is what a feed gathers of one column.
type fedColumn struct {
	kind    tuple.Kind      // the column's; KindInvalid when it is not fed
	keyed   bool            // gathers what an index on it is built from
	images  stats.Images    // a numeric column
	strs    stats.Collector // a string column
	entries []btree.Entry   // a keyed string column's index entries
	keys    keyChunks       // the keys those entries point into
}

// NewFeed returns the feed a load of n rows into t fills: every column's
// statistics, and every numeric column keyed, so an index or a histogram on
// any of them reads no page. It is t's whole preparation as the paper's
// set-up does it (Section 4.2): indexes and histograms on numeric fields.
func NewFeed(t *Table, n int) *Feed {
	var numeric tuple.ColSet
	for i, c := range t.Schema.Columns {
		if c.Kind != tuple.KindString {
			numeric = numeric.With(i)
		}
	}
	return newFeed(t, tuple.AllCols, numeric, n)
}

// ScanFeed feeds the columns in cols from one scan of t's heap, decoding only
// those; the columns in keyed also gather what an index on them is built
// from. The scan goes through the buffer pool, so it is charged the pages it
// reads like any other statement.
func ScanFeed(t *Table, cols, keyed tuple.ColSet) (*Feed, error) {
	f := newFeed(t, cols, keyed, int(t.RowCount()))
	row := make(tuple.Row, t.Schema.Len())
	err := t.Heap.Scan(func(rid storage.RID, rec []byte) error {
		if _, err := tuple.DecodeLive(row, rec, t.Schema, cols, nil); err != nil {
			return err
		}
		f.Add(rid, row)
		return nil
	})
	if err != nil {
		f.Release()
		return nil, err
	}
	return f, nil
}

func newFeed(t *Table, cols, keyed tuple.ColSet, n int) *Feed {
	f := &Feed{t: t, cols: make([]fedColumn, t.Schema.Len())}
	var collectors []stats.Collector // each of its column's kind
	for i, c := range t.Schema.Columns {
		if !cols.Has(i) {
			continue
		}
		fc := &f.cols[i]
		fc.kind, fc.keyed = c.Kind, keyed.Has(i)
		if c.Kind != tuple.KindString {
			fc.images = stats.NewImages(c.Kind, n, fc.keyed)
			continue
		}
		if collectors == nil {
			collectors = stats.ColumnCollectors(t.Schema)
		}
		fc.strs = collectors[i]
		if fc.keyed {
			fc.entries = entrySlabs.Take(max(n, 1))[:0]
			fc.keys = keyChunks{next: 8 * n}
		}
	}
	return f
}

// Add feeds the row stored at rid. row holds at least the fed columns.
func (f *Feed) Add(rid storage.RID, row tuple.Row) {
	f.rows++
	for i := range f.cols {
		fc := &f.cols[i]
		switch fc.kind {
		case tuple.KindInvalid:
		case tuple.KindString:
			fc.strs.Add(row[i])
			if fc.keyed {
				fc.entries = append(fc.entries, btree.Entry{Key: fc.keys.carve(row[i]), RID: rid})
			}
		default:
			fc.images.Add(row[i], rid.Bits())
		}
	}
}

// Table is the table the feed gathers.
func (f *Feed) Table() *Table { return f.t }

// Rows is the number of rows fed.
func (f *Feed) Rows() int64 { return f.rows }

// Check reports whether the feed holds every row of t, so that what is built
// from it is what a scan of t would build.
func (f *Feed) Check(t *Table) error {
	if f.t != t || f.rows != t.RowCount() {
		return fmt.Errorf("catalog: feed of %d rows of %q does not hold the %d rows of %q", f.rows, f.t.Name, t.RowCount(), t.Name)
	}
	return nil
}

func (fc *fedColumn) fed() bool { return fc.kind != tuple.KindInvalid }

// stats returns the column's statistics.
func (fc *fedColumn) stats() *stats.ColumnStats {
	if fc.kind == tuple.KindString {
		return fc.strs.Stats()
	}
	return fc.images.Stats()
}

// column returns the fed column ord, or an error naming what is missing.
func (f *Feed) column(ord int, keyed bool) (*fedColumn, error) {
	if ord < 0 || ord >= len(f.cols) || !f.cols[ord].fed() {
		return nil, fmt.Errorf("catalog: column %d of %q was not fed", ord, f.t.Name)
	}
	if fc := &f.cols[ord]; !keyed || fc.keyed {
		return fc, nil
	}
	return nil, fmt.Errorf("catalog: column %q of %q was fed without its index keys", f.t.Schema.Columns[ord].Name, f.t.Name)
}

// Stats returns the statistics of the fed column ord.
func (f *Feed) Stats(ord int) (*stats.ColumnStats, error) {
	fc, err := f.column(ord, false)
	if err != nil {
		return nil, err
	}
	return fc.stats(), nil
}

// Analyze installs the statistics of every fed column on the feed's table,
// each keeping the histogram its column already has: histograms are created
// by a separate, costed manipulation.
func (f *Feed) Analyze() {
	for i, c := range f.t.Schema.Columns {
		if !f.cols[i].fed() {
			continue
		}
		cs := f.cols[i].stats()
		if old := f.t.ColumnStats(c.Name); old != nil {
			cs.SetHist(old.Hist())
		}
		f.t.SetColumnStats(c.Name, cs)
	}
}

// Histogram builds an equi-depth histogram of at most numBuckets buckets on
// the fed numeric column ord.
func (f *Feed) Histogram(ord, numBuckets int) (*stats.Histogram, error) {
	fc, err := f.column(ord, false)
	if err != nil {
		return nil, err
	}
	if fc.kind == tuple.KindString {
		return nil, fmt.Errorf("catalog: histogram over string column %q", f.t.Schema.Columns[ord].Name)
	}
	return fc.images.Histogram(numBuckets)
}

// Index bulk-loads the empty tree with the keyed column ord: a numeric
// column's sorted images with their RIDs, a string column's entries sorted.
// The tree copies every key into its pages, so nothing it holds points into
// the feed.
func (f *Feed) Index(ord int, tree *btree.BTree) error {
	fc, err := f.column(ord, true)
	if err != nil {
		return err
	}
	if fc.kind != tuple.KindString {
		return tree.BulkLoadImages(fc.images.Sorted())
	}
	btree.SortEntries(fc.entries)
	return tree.BulkLoad(fc.entries)
}

// Release gives back everything the feed gathered; nothing built from it
// refers to that memory, because statistics copy numbers out, histograms are
// their own, and trees copy their keys into pages.
func (f *Feed) Release() {
	for i := range f.cols {
		fc := &f.cols[i]
		fc.images.Release()
		fc.strs.Release()
		entrySlabs.Give(fc.entries)
		fc.keys.release()
		*fc = fedColumn{}
	}
}

// entrySlabs recycles string index builds' entries.
var entrySlabs slab.Classes[btree.Entry]

// keyChunks carves string index keys out of chunks from slab.Bytes, back to
// back, so a build allocates no key of its own. A key never moves once
// carved, so a full chunk is kept until release and the next is taken twice
// as large.
type keyChunks struct {
	cur  []byte   // the chunk keys are carved from
	full [][]byte // chunks with no room left
	next int      // size of the next chunk to take
}

// carve appends the key of the string v to the chunks and returns it,
// capacity clipped.
func (k *keyChunks) carve(v tuple.Value) []byte {
	if n := tuple.KeySizeOf(tuple.KindString, v); cap(k.cur)-len(k.cur) < n {
		if k.cur != nil {
			k.full = append(k.full, k.cur)
		}
		k.cur = slab.Bytes.Take(max(k.next, n, 1))[:0]
		k.next = 2 * cap(k.cur)
	}
	start := len(k.cur)
	k.cur = tuple.EncodeKeyOf(k.cur, tuple.KindString, v)
	return k.cur[start:len(k.cur):len(k.cur)]
}

// release gives every chunk back; no key carved from them may be read
// afterwards.
func (k *keyChunks) release() {
	for _, c := range k.full {
		slab.Bytes.Give(c)
	}
	slab.Bytes.Give(k.cur)
	*k = keyChunks{}
}
