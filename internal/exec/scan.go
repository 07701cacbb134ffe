package exec

import (
	"fmt"

	"specdb/internal/btree"
	"specdb/internal/catalog"
	"specdb/internal/storage"
	"specdb/internal/tuple"
)

// qualify renames a stored schema with a relation prefix. A view's stored
// columns are already qualified ("rel.col"), so view scans pass qualifier "".
func qualify(s *tuple.Schema, qualifier string) *tuple.Schema {
	if qualifier == "" {
		return s
	}
	return s.Rename(func(n string) string { return qualifier + "." + n })
}

// SeqScan reads a table front to back. Every stored record is decoded into
// one scan-owned row, which Next lends out until the following call.
type SeqScan struct {
	ctx    *Context
	table  *catalog.Table
	schema *tuple.Schema
	iter   *storage.HeapIterator
	row    tuple.Row
}

// NewSeqScan builds a sequential scan over table. qualifier, when non-empty,
// prefixes column names ("R" turns column "a" into "R.a").
func NewSeqScan(ctx *Context, table *catalog.Table, qualifier string) *SeqScan {
	return &SeqScan{
		ctx:    ctx,
		table:  table,
		schema: qualify(table.Schema, qualifier),
		row:    make(tuple.Row, table.Schema.Len()),
	}
}

// Open positions the cursor.
func (s *SeqScan) Open() error {
	s.iter = s.table.Heap.NewIterator(s.ctx.Pool)
	return nil
}

// Next decodes and returns the next stored row.
func (s *SeqScan) Next() (tuple.Row, bool, error) {
	_, rec, ok, err := s.iter.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	if _, err := tuple.DecodeRowInto(s.row, rec, s.table.Schema); err != nil {
		return nil, false, fmt.Errorf("exec: decoding row in %q: %w", s.table.Name, err)
	}
	s.ctx.count(1)
	return s.row, true, nil
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

// IndexScan fetches the rows whose indexed column falls within [lo, hi] via
// a B+-tree, then fetches each matching row from the heap. Matching RIDs are
// gathered at Open (charging index-page I/O) into a list taken from a slab and
// given back at Close — the scan lends rows, never the list; heap fetches
// happen lazily, each record decoded under its page pin into one scan-owned
// row.
type IndexScan struct {
	ctx    *Context
	table  *catalog.Table
	index  *catalog.Index
	lo, hi btree.Bound
	schema *tuple.Schema

	rids []storage.RID
	pos  int
	row  tuple.Row
	// gather and decode are the Scan and View callbacks, built once so a
	// lookup allocates no closure.
	gather func(key []byte, rid storage.RID) error
	decode func(rec []byte) error
}

// NewIndexScan builds an index scan with the given key bounds (tuple.EncodeKey
// encodings; nil key = unbounded).
func NewIndexScan(ctx *Context, table *catalog.Table, index *catalog.Index, lo, hi btree.Bound, qualifier string) *IndexScan {
	s := &IndexScan{
		ctx:    ctx,
		table:  table,
		index:  index,
		lo:     lo,
		hi:     hi,
		schema: qualify(table.Schema, qualifier),
		row:    make(tuple.Row, table.Schema.Len()),
	}
	s.gather = func(_ []byte, rid storage.RID) error {
		if len(s.rids) == cap(s.rids) {
			grown := ridSlabs.Take(2 * cap(s.rids))[:len(s.rids)]
			copy(grown, s.rids)
			ridSlabs.Give(s.rids)
			s.rids = grown
		}
		s.rids = append(s.rids, rid)
		return nil
	}
	s.decode = func(rec []byte) error {
		_, err := tuple.DecodeRowInto(s.row, rec, table.Schema)
		return err
	}
	return s
}

// ridsMin is the capacity of a fresh RID list; it doubles from there.
const ridsMin = 64

// Open walks the index and gathers matching RIDs.
func (s *IndexScan) Open() error {
	if s.rids == nil {
		s.rids = ridSlabs.Take(ridsMin)
	}
	s.rids = s.rids[:0]
	s.pos = 0
	return s.index.Tree.ScanVia(s.ctx.Pool, s.lo, s.hi, s.gather)
}

// Next fetches the row for the next matching RID.
func (s *IndexScan) Next() (tuple.Row, bool, error) {
	if s.pos >= len(s.rids) {
		return nil, false, nil
	}
	if err := s.table.Heap.View(s.ctx.Pool, s.rids[s.pos], s.decode); err != nil {
		return nil, false, err
	}
	s.pos++
	s.ctx.count(1)
	return s.row, true, nil
}

// Close gives the RID list back.
func (s *IndexScan) Close() error {
	s.ctx.flush()
	ridSlabs.Give(s.rids)
	s.rids, s.pos = nil, 0
	return nil
}

// Schema reports the output schema.
func (s *IndexScan) Schema() *tuple.Schema { return s.schema }

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

// Schema reports the row schema.
func (v *ValuesScan) Schema() *tuple.Schema { return v.schema }
