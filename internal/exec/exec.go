// Package exec is the Volcano-style executor: pull-based iterators for
// scans, filters, projections, and joins. Every operator counts the tuples it
// processes on the execution context, which hands the count to the context's
// meter wherever the meter can be read (Context.flush), and fetches its pages
// through the context's pool view, which charges the misses to the same meter
// — that one meter is where a statement's simulated duration comes from.
package exec

import (
	"specdb/internal/sim"
	"specdb/internal/storage"
	"specdb/internal/tuple"
)

// Context carries per-execution state through an operator tree. The operators
// built on one context run on one goroutine — nothing in the executor, the
// planner or the engine starts another — and that is what lets them count
// tuples in a plain field. Two statements never share a context.
type Context struct {
	// Meter receives per-tuple CPU charges. Required.
	Meter *sim.Meter
	// Pool is what the scans fetch heap and index pages through: the engine
	// hands every statement a buffer.View charging to Meter, so the page I/O
	// an operator causes lands beside its tuples whoever else is running. Nil
	// means each file's own pool and whatever that charges by default.
	Pool storage.PagePool
	// WorkMemBytes bounds the memory a single join may use before it
	// spills: a hash join whose build side exceeds it partitions both
	// inputs to disk (charged as page I/O), like the era-appropriate
	// GRACE hash join of the paper's testbed DBMS. 0 disables spilling.
	WorkMemBytes int64
	// Observe, when non-nil, may wrap each operator iterator as the plan
	// is built (EXPLAIN ANALYZE). node is the plan node that produced it —
	// typed any because exec cannot import plan. The wrapper must preserve
	// the iterator's behaviour exactly; it exists only to record actuals. One
	// that does not forward Gated keeps a hash join from handing its key
	// test to the scan below, which costs speed and changes nothing else.
	Observe func(node any, it Iterator) Iterator

	// tuples counts what the operators have processed since the last flush.
	tuples int64
}

// count records n tuples processed by an operator. It is a plain add where
// Meter.ChargeTuples is a locked one: an answer passes through here a hundred
// thousand times.
func (c *Context) count(n int64) { c.tuples += n }

// flush hands the counted tuples to the meter. It runs wherever the meter can
// be observed — at every operator's Close, so whoever drains an iterator and
// then reads the meter sees exact totals, and before each snapshot a profiler
// takes: at those points the meter reads exactly what charging every row on
// the spot would have left on it.
func (c *Context) flush() {
	if c.tuples != 0 {
		c.Meter.ChargeTuples(c.tuples)
		c.tuples = 0
	}
}

// Instrument passes it through ctx.Observe if set; plan-node Build methods
// call this on their finished iterator so EXPLAIN ANALYZE can attribute rows
// and work to the node that produced them.
func (c *Context) Instrument(node any, it Iterator) Iterator {
	if c.Observe == nil {
		return it
	}
	return c.Observe(node, it)
}

// NewContext returns a context charging tuples to meter, with no pool view.
func NewContext(meter *sim.Meter) *Context { return &Context{Meter: meter} }

// Iterator is the Volcano operator interface.
type Iterator interface {
	// Open prepares the operator (builds hash tables, positions cursors).
	Open() error
	// Next produces the next row; ok is false at end of stream. The row is
	// lent, not given: it is valid until the following Next or Close call on
	// this operator, which may overwrite it, and the operator in turn relies
	// on nothing it has lent out staying intact. A caller that keeps a row
	// longer copies it (DESIGN.md §15 lists who does).
	Next() (row tuple.Row, ok bool, err error)
	// Close releases resources. Must be safe to call after a failed Open and
	// more than once.
	Close() error
	// Schema describes the rows produced.
	Schema() *tuple.Schema
	// StoredLen is the stored length of the row Next last returned: what its
	// records take on pages — a scanned record's own length, the sum of a
	// join's two sides — however few of its columns the row carries. A join
	// charges its spill by it (DESIGN.md §15, "What a query decodes and
	// copies").
	StoredLen() int
}

// Pruner is implemented by an operator that can leave columns of its rows
// unwritten. Prune, called before Open, names the columns something above it
// reads; from then on the others may hold anything. The operator passes on
// to its children what they must produce for it: those columns, and the ones
// it reads itself. A wrapper that only observes its iterator forwards the
// call; one that does not leaves its subtree whole, which costs speed and
// changes nothing else.
type Pruner interface {
	Prune(live tuple.ColSet)
}

// prune hands live to it, if it takes it.
func prune(it Iterator, live tuple.ColSet) {
	if p, ok := asPruner(it); ok {
		p.Prune(live)
	}
}

// asPruner is it.(Pruner), with the executor's own iterators named by a
// switch on their types, which compares type words. An assertion to an
// interface goes through the runtime's per-site type-assertion cache, which
// it rebuilds — an allocation — on about one miss in 1,024, at random, so a
// statement's allocation count would depend on the draw (scripts/bench_gate.sh
// counts them). Other iterators are asserted.
func asPruner(it Iterator) (Pruner, bool) {
	switch p := it.(type) {
	case *SeqScan:
		return p, true
	case *IndexScan:
		return p, true
	case *Filter:
		return p, true
	case *ColFilter:
		return p, true
	case *HashJoin:
		return p, true
	case *IndexNLJoin:
		return p, true
	case *CrossJoin:
		return p, true
	case *profiledIter:
		return p, true
	case *Project, *ValuesScan:
		return nil, false
	}
	p, ok := it.(Pruner)
	return p, ok
}

// asGated is it.(Gated), the executor's own iterators named as in asPruner.
func asGated(it Iterator) (Gated, bool) {
	switch p := it.(type) {
	case *SeqScan:
		return p, true
	case *profiledIter:
		return p, true
	case *IndexScan, *Filter, *ColFilter, *HashJoin, *IndexNLJoin, *CrossJoin, *Project, *ValuesScan:
		return nil, false
	}
	p, ok := it.(Gated)
	return p, ok
}

// Drain runs an iterator to completion, invoking fn for each row, and always
// closes it. It is the standard top-level execution loop.
func Drain(it Iterator, fn func(tuple.Row) error) error {
	return run(it, func() (bool, error) {
		row, ok, err := it.Next()
		if err != nil || !ok || fn == nil {
			return ok, err
		}
		return true, fn(row)
	})
}

// run opens it, calls step until step reports the end of the stream or fails,
// and always closes it.
func run(it Iterator, step func() (bool, error)) (err error) {
	if err := it.Open(); err != nil {
		it.Close()
		return err
	}
	defer func() {
		if cerr := it.Close(); err == nil {
			err = cerr
		}
	}()
	for {
		if ok, err := step(); err != nil || !ok {
			return err
		}
	}
}

// Collect drains an iterator into a materialized row slice. Each row is
// copied once, into chunks shared by the rows of this answer, and the slice is
// cut from the chunks at its exact length when the stream ends. Under a
// Project that copy is the only write of an answer value: the projection
// writes each row straight into its chunk. An empty stream collects to nil.
// The answer is the caller's for as long as it likes, so none of its memory
// comes from or goes back to a slab.
func Collect(it Iterator) ([]tuple.Row, error) {
	kept := rowArena{width: it.Schema().Len()}
	var err error
	if p, ok := it.(*Project); ok {
		err = kept.collect(p)
	} else {
		err = kept.drain(it)
	}
	if err != nil {
		return nil, err
	}
	return kept.rows(), nil
}

// Count drains an iterator and reports the number of rows.
func Count(it Iterator) (int64, error) {
	var n int64
	err := Drain(it, func(tuple.Row) error {
		n++
		return nil
	})
	return n, err
}
