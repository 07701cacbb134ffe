package exec

import (
	"fmt"

	"specdb/internal/btree"
	"specdb/internal/catalog"
	"specdb/internal/radix"
	"specdb/internal/slab"
	"specdb/internal/storage"
	"specdb/internal/tuple"
)

// qualify renames a table's stored schema with a relation prefix. A view's
// stored columns are already qualified ("rel.col"), so view scans pass
// qualifier ""; a table read under its own name shares its Qualified schema.
func qualify(t *catalog.Table, qualifier string) *tuple.Schema {
	switch qualifier {
	case "":
		return t.Schema
	case t.Name:
		return t.Qualified()
	}
	return t.Schema.Rename(func(n string) string { return qualifier + "." + n })
}

// SeqScan reads a table front to back. Every stored record it returns is
// decoded into one scan-owned row, which Next lends out until the following
// call. It may carry selections (Where) and a hash join's key test (Gate);
// both are tested on the stored record, a column at a time, and only a record
// that passes them all is decoded (DESIGN.md §15, "What a scan decodes") —
// and of it only the columns its consumers read (Prune).
type SeqScan struct {
	ctx    *Context
	table  *catalog.Table
	schema *tuple.Schema
	iter   *storage.HeapIterator
	row    tuple.Row
	preds  []Pred
	gate   *KeyGate
	live   tuple.ColSet
	stored int // the returned record's length
	// perRecord is what one stored record counts: the scanned tuple, and
	// once more when fused selections test it, as a Filter would count it.
	perRecord int64
}

// NewSeqScan builds a sequential scan over table. qualifier, when non-empty,
// prefixes column names ("R" turns column "a" into "R.a").
func NewSeqScan(ctx *Context, table *catalog.Table, qualifier string) *SeqScan {
	return &SeqScan{
		ctx:       ctx,
		table:     table,
		schema:    qualify(table, qualifier),
		row:       make(tuple.Row, table.Schema.Len()),
		live:      tuple.AllCols,
		perRecord: 1,
	}
}

// Where fuses a conjunctive selection, compiled against the scan's schema,
// into the scan, which then returns the rows NewFilter over it would and
// counts what that pair counted: a scanned tuple and a filter input for every
// record. It returns the scan.
func (s *SeqScan) Where(preds ...Pred) *SeqScan {
	s.preds, s.perRecord = preds, perRecord(preds)
	return s
}

// perRecord is what a scan counts for each record it reads.
func perRecord(preds []Pred) int64 {
	if len(preds) > 0 {
		return 2
	}
	return 1
}

// Gate implements Gated: from now on a record whose key the join's table
// does not hold is skipped undecoded.
func (s *SeqScan) Gate(g *KeyGate) bool {
	s.gate = g
	return true
}

// Prune implements Pruner: only the columns in live are decoded. The
// selections and the key test read the record, not the row.
func (s *SeqScan) Prune(live tuple.ColSet) { s.live = live.Over(s.schema.Len()) }

// Open positions the cursor.
func (s *SeqScan) Open() error {
	s.iter = s.table.Heap.NewIterator(s.ctx.Pool)
	return nil
}

// Next returns the next stored row that passes the selections and the gate.
func (s *SeqScan) Next() (tuple.Row, bool, error) {
	if ok, err := s.next(s.row, nil); !ok || err != nil {
		return nil, false, err
	}
	return s.row, true, nil
}

// next decodes the next record that passes the selections and the gate into
// dst: the live columns in place when ords is nil, else the projection ords
// of the record (tuple.DecodeLive).
func (s *SeqScan) next(dst tuple.Row, ords []int) (bool, error) {
	for {
		_, rec, ok, err := s.iter.Next()
		if err != nil || !ok {
			return false, err
		}
		s.ctx.count(s.perRecord)
		pass, err := s.passes(rec)
		if err == nil && pass {
			_, err = tuple.DecodeLive(dst, rec, s.table.Schema, s.live, ords)
		}
		if err != nil {
			return false, fmt.Errorf("exec: decoding row in %q: %w", s.table.Name, err)
		}
		if pass {
			s.stored = len(rec)
			return true, nil
		}
	}
}

// passes tests the selections, then the gate, on a stored record. The values
// it reads alias the record and die with the test. A record that fails only
// the gate is counted on it as skipped: it reached the join, and had no match.
func (s *SeqScan) passes(rec []byte) (bool, error) {
	if len(s.preds) != 0 {
		if pass, err := holds(rec, s.table.Schema, s.preds); err != nil || !pass {
			return false, err
		}
	}
	if g := s.gate; g != nil {
		v, _, err := tuple.DecodeColumn(rec, s.table.Schema, g.ord)
		if err != nil {
			return false, err
		}
		if g.match = g.table.lookup(v); g.match == 0 {
			g.skipped++
			g.skippedBytes += int64(len(rec))
			return false, nil
		}
	}
	return true, nil
}

// holds tests the selections on a stored record of schema s, a column at a
// time through tuple.DecodeColumn, up to the first that fails.
func holds(rec []byte, s *tuple.Schema, preds []Pred) (bool, error) {
	for _, p := range preds {
		v, _, err := tuple.DecodeColumn(rec, s, p.Ord)
		if err != nil || !p.Op.Eval(v, p.Const) {
			return false, err
		}
	}
	return true, nil
}

// Close releases the cursor.
func (s *SeqScan) Close() error {
	s.ctx.flush()
	if s.iter != nil {
		s.iter.Close()
		s.iter = nil
	}
	return nil
}

// Schema reports the (possibly qualified) output schema.
func (s *SeqScan) Schema() *tuple.Schema { return s.schema }

// StoredLen implements Iterator: the record's length.
func (s *SeqScan) StoredLen() int { return s.stored }

// IndexScan fetches the rows whose indexed column falls within [lo, hi] via
// a B+-tree, then fetches each matching row from the heap. Matching RIDs are
// gathered at Open (charging index-page I/O) into a list taken from a slab and
// given back at Close — the scan lends rows, never the list — and sorted into
// heap order, page then slot, so the fetches visit each heap page in one run
// and read it at most once, whatever the pool holds: the cap
// the optimizer's index estimate prices. Heap fetches happen lazily, one pin per
// record and none held across Next, each record tested against the scan's
// selections (Where) and, if it passes, decoded under its page pin into one
// scan-owned row, as a SeqScan does. Rows come out in heap order, not key
// order; nothing above a scan relies on either.
type IndexScan struct {
	ctx    *Context
	table  *catalog.Table
	index  *catalog.Index
	lo, hi btree.Bound
	schema *tuple.Schema

	rids      []uint64 // storage.RID.Bits of the matches, in heap order after Open
	pos       int
	row       tuple.Row
	preds     []Pred
	perRecord int64
	live      tuple.ColSet
	stored    int
	// The View callback's arguments and result: it decodes a passing record
	// into dst (through ords, if set) and sets pass.
	dst  tuple.Row
	ords []int
	pass bool
	// gather and visit are the Scan and View callbacks, built once so a
	// lookup allocates no closure.
	gather func(key []byte, rid storage.RID) error
	visit  func(rec []byte) error
}

// NewIndexScan builds an index scan with the given key bounds (tuple.EncodeKey
// encodings; nil key = unbounded).
func NewIndexScan(ctx *Context, table *catalog.Table, index *catalog.Index, lo, hi btree.Bound, qualifier string) *IndexScan {
	s := &IndexScan{
		ctx:       ctx,
		table:     table,
		index:     index,
		lo:        lo,
		hi:        hi,
		schema:    qualify(table, qualifier),
		row:       make(tuple.Row, table.Schema.Len()),
		perRecord: 1,
		live:      tuple.AllCols,
	}
	s.gather = func(_ []byte, rid storage.RID) error {
		if len(s.rids) == cap(s.rids) {
			grown := slab.Uint64s.Take(2 * cap(s.rids))[:len(s.rids)]
			copy(grown, s.rids)
			slab.Uint64s.Give(s.rids)
			s.rids = grown
		}
		s.rids = append(s.rids, rid.Bits())
		return nil
	}
	s.visit = func(rec []byte) error {
		pass, err := holds(rec, table.Schema, s.preds)
		if err == nil && pass {
			_, err = tuple.DecodeLive(s.dst, rec, table.Schema, s.live, s.ords)
		}
		s.pass, s.stored = pass && err == nil, len(rec)
		return err
	}
	return s
}

// Where fuses a conjunctive selection, compiled against the scan's schema,
// into the scan, as SeqScan.Where does: a fetched record is tested before it
// is decoded, and counts a scanned tuple and a filter input. It returns the
// scan.
func (s *IndexScan) Where(preds ...Pred) *IndexScan {
	s.preds, s.perRecord = preds, perRecord(preds)
	return s
}

// Prune implements Pruner: only the columns in live are decoded.
func (s *IndexScan) Prune(live tuple.ColSet) { s.live = live.Over(s.schema.Len()) }

// ridsMin is the capacity of a fresh RID list; it doubles from there.
const ridsMin = 64

// Open walks the index, gathers the matching RIDs and sorts them into heap
// order (RID.Bits orders as RIDs do).
func (s *IndexScan) Open() error {
	if s.rids == nil {
		s.rids = slab.Uint64s.Take(ridsMin)
	}
	s.rids = s.rids[:0]
	s.pos = 0
	if err := s.index.Tree.ScanVia(s.ctx.Pool, s.lo, s.hi, s.gather); err != nil {
		return err
	}
	radix.Sort(s.rids, nil)
	return nil
}

// Next fetches the row for the next matching RID that passes the selections.
func (s *IndexScan) Next() (tuple.Row, bool, error) {
	if ok, err := s.next(s.row, nil); !ok || err != nil {
		return nil, false, err
	}
	return s.row, true, nil
}

// next decodes the next fetched record that passes the selections into dst,
// as SeqScan.next does.
func (s *IndexScan) next(dst tuple.Row, ords []int) (bool, error) {
	s.dst, s.ords = dst, ords
	for s.pos < len(s.rids) {
		if err := s.table.Heap.View(s.ctx.Pool, storage.RIDOfBits(s.rids[s.pos]), s.visit); err != nil {
			return false, err
		}
		s.pos++
		s.ctx.count(s.perRecord)
		if s.pass {
			return true, nil
		}
	}
	return false, nil
}

// Close gives the RID list back.
func (s *IndexScan) Close() error {
	s.ctx.flush()
	slab.Uint64s.Give(s.rids)
	s.rids, s.pos = nil, 0
	s.dst, s.ords = nil, nil
	return nil
}

// Schema reports the output schema.
func (s *IndexScan) Schema() *tuple.Schema { return s.schema }

// StoredLen implements Iterator: the record's length.
func (s *IndexScan) StoredLen() int { return s.stored }

// ValuesScan replays an in-memory row set; used for tests and for
// re-scanning materialized intermediates. It lends out the stored rows
// themselves, which stay the caller's.
type ValuesScan struct {
	ctx    *Context
	schema *tuple.Schema
	rows   []tuple.Row
	pos    int
}

// NewValuesScan wraps rows with the given schema.
func NewValuesScan(ctx *Context, schema *tuple.Schema, rows []tuple.Row) *ValuesScan {
	return &ValuesScan{ctx: ctx, schema: schema, rows: rows}
}

// Open rewinds.
func (v *ValuesScan) Open() error { v.pos = 0; return nil }

// Next returns the next stored row.
func (v *ValuesScan) Next() (tuple.Row, bool, error) {
	if v.pos >= len(v.rows) {
		return nil, false, nil
	}
	row := v.rows[v.pos]
	v.pos++
	v.ctx.count(1)
	return row, true, nil
}

// Close releases nothing.
func (v *ValuesScan) Close() error {
	v.ctx.flush()
	return nil
}

// StoredLen implements Iterator: a values scan's rows were never records, so
// its length is the one the row would have as one.
func (v *ValuesScan) StoredLen() int { return tuple.EncodedSize(v.schema, v.rows[v.pos-1]) }

// Schema reports the row schema.
func (v *ValuesScan) Schema() *tuple.Schema { return v.schema }
