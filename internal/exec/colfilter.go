package exec

import (
	"fmt"

	"specdb/internal/tuple"
)

// ColPred compares two columns: of the same row in a ColFilter (a join edge
// between relations a materialized view already joined, or an edge beyond the
// one an index or cross join is driven by), of a build row and a probe row in
// a HashJoin's residual.
type ColPred struct {
	LeftOrd  int
	Op       tuple.CmpOp
	RightOrd int
}

// CompileColPred resolves two column names against a schema.
func CompileColPred(schema *tuple.Schema, left string, op tuple.CmpOp, right string) (ColPred, error) {
	lo := schema.Ordinal(left)
	if lo < 0 {
		return ColPred{}, fmt.Errorf("exec: schema has no column %q", left)
	}
	ro := schema.Ordinal(right)
	if ro < 0 {
		return ColPred{}, fmt.Errorf("exec: schema has no column %q", right)
	}
	return ColPred{LeftOrd: lo, Op: op, RightOrd: ro}, nil
}

// Eval applies the predicate to a row.
func (p ColPred) Eval(row tuple.Row) bool { return p.Op.Eval(row[p.LeftOrd], row[p.RightOrd]) }

// ColFilter passes through rows satisfying every column-column predicate.
type ColFilter struct {
	ctx   *Context
	child Iterator
	preds []ColPred
}

// NewColFilter wraps child.
func NewColFilter(ctx *Context, child Iterator, preds []ColPred) *ColFilter {
	return &ColFilter{ctx: ctx, child: child, preds: preds}
}

// Open opens the child.
func (f *ColFilter) Open() error { return f.child.Open() }

// Next pulls until a row satisfies all predicates.
func (f *ColFilter) Next() (tuple.Row, bool, error) {
	for {
		row, ok, err := f.child.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		f.ctx.count(1)
		match := true
		for _, p := range f.preds {
			if !p.Eval(row) {
				match = false
				break
			}
		}
		if match {
			return row, true, nil
		}
	}
}

// Close closes the child.
func (f *ColFilter) Close() error {
	f.ctx.flush()
	return f.child.Close()
}

// Schema is the child's schema.
func (f *ColFilter) Schema() *tuple.Schema { return f.child.Schema() }

// StoredLen implements Iterator: the row is the child's.
func (f *ColFilter) StoredLen() int { return f.child.StoredLen() }

// Prune implements Pruner: the child must also produce the compared columns.
func (f *ColFilter) Prune(live tuple.ColSet) {
	for _, p := range f.preds {
		live = live.With(p.LeftOrd).With(p.RightOrd)
	}
	prune(f.child, live)
}
