package exec

import (
	"fmt"

	"specdb/internal/tuple"
)

// Pred is a compiled selection predicate: column ordinal op constant.
type Pred struct {
	Ord   int
	Op    tuple.CmpOp
	Const tuple.Value
}

// CompilePred resolves a named predicate against a schema.
func CompilePred(schema *tuple.Schema, col string, op tuple.CmpOp, constant tuple.Value) (Pred, error) {
	ord := schema.Ordinal(col)
	if ord < 0 {
		return Pred{}, fmt.Errorf("exec: schema %v has no column %q", schema, col)
	}
	return Pred{Ord: ord, Op: op, Const: constant}, nil
}

// Eval applies the predicate to a row.
func (p Pred) Eval(row tuple.Row) bool { return p.Op.Eval(row[p.Ord], p.Const) }

// Filter passes through rows satisfying every predicate.
type Filter struct {
	ctx   *Context
	child Iterator
	preds []Pred
}

// NewFilter wraps child with a conjunctive filter.
func NewFilter(ctx *Context, child Iterator, preds []Pred) *Filter {
	return &Filter{ctx: ctx, child: child, preds: preds}
}

// Open opens the child.
func (f *Filter) Open() error { return f.child.Open() }

// Next pulls until a row satisfies all predicates.
func (f *Filter) Next() (tuple.Row, bool, error) {
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
func (f *Filter) Close() error {
	f.ctx.flush()
	return f.child.Close()
}

// Schema is the child's schema.
func (f *Filter) Schema() *tuple.Schema { return f.child.Schema() }

// StoredLen implements Iterator: the row is the child's.
func (f *Filter) StoredLen() int { return f.child.StoredLen() }

// Prune implements Pruner: the child must also produce the tested columns.
func (f *Filter) Prune(live tuple.ColSet) {
	for _, p := range f.preds {
		live = live.With(p.Ord)
	}
	prune(f.child, live)
}

// Project reorders/narrows columns by ordinal. It prunes its child to the
// columns it reads, and writes each row it produces straight from where its
// child holds the values: the build and probe rows of a hash join's match, or
// the record a scan reads, in projected order (nextInto). Only over any other
// child is its row a copy of the child's.
type Project struct {
	ctx    *Context
	child  Iterator
	ords   []int
	schema *tuple.Schema
	out    tuple.Row
	// decode is what a scan child decodes a record through: ords, or nil
	// when they are the identity and the record decodes in place.
	decode []int
}

// NewProject projects child onto the named columns, in order.
func NewProject(ctx *Context, child Iterator, cols []string) (*Project, error) {
	in := child.Schema()
	ords := make([]int, len(cols))
	outCols := make([]tuple.Column, len(cols))
	for i, c := range cols {
		ord := in.Ordinal(c)
		if ord < 0 {
			return nil, fmt.Errorf("exec: projection column %q not in %v", c, in)
		}
		ords[i] = ord
		outCols[i] = in.Columns[ord]
	}
	prune(child, tuple.ColsOf(ords...))
	p := &Project{
		ctx:    ctx,
		child:  child,
		ords:   ords,
		schema: tuple.NewProjection(outCols...),
		out:    make(tuple.Row, len(cols)),
	}
	if !identity(ords, in.Len()) {
		p.decode = ords
	}
	return p, nil
}

// identity reports whether ords are 0, 1, …, n−1.
func identity(ords []int, n int) bool {
	if len(ords) != n {
		return false
	}
	for i, o := range ords {
		if o != i {
			return false
		}
	}
	return true
}

// Open opens the child.
func (p *Project) Open() error { return p.child.Open() }

// Next narrows the next child row. The returned row is reused.
func (p *Project) Next() (tuple.Row, bool, error) {
	if ok, err := p.nextInto(p.out); !ok || err != nil {
		return nil, false, err
	}
	return p.out, true, nil
}

// nextInto writes the next projected row into dst, which holds a value per
// projected column: Collect hands it the row's place in the answer.
func (p *Project) nextInto(dst tuple.Row) (bool, error) {
	var ok bool
	var err error
	switch c := p.child.(type) {
	case *HashJoin:
		var build tuple.Row
		if build, ok, err = c.advance(); ok && err == nil {
			c.project(dst, build, p.ords)
		}
	case *SeqScan:
		ok, err = c.next(dst, p.decode)
	case *IndexScan:
		ok, err = c.next(dst, p.decode)
	default:
		var row tuple.Row
		if row, ok, err = c.Next(); ok && err == nil {
			for i, ord := range p.ords {
				dst[i] = row[ord]
			}
		}
	}
	if !ok || err != nil {
		return false, err
	}
	p.ctx.count(1)
	return true, nil
}

// Close closes the child.
func (p *Project) Close() error {
	p.ctx.flush()
	return p.child.Close()
}

// Schema reports the projected schema.
func (p *Project) Schema() *tuple.Schema { return p.schema }

// StoredLen implements Iterator: the child's row's.
func (p *Project) StoredLen() int { return p.child.StoredLen() }
