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

// Project reorders/narrows columns by ordinal.
type Project struct {
	ctx    *Context
	child  Iterator
	ords   []int
	schema *tuple.Schema
	out    tuple.Row
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
	return &Project{
		ctx:    ctx,
		child:  child,
		ords:   ords,
		schema: tuple.NewSchema(outCols...),
		out:    make(tuple.Row, len(cols)),
	}, nil
}

// Open opens the child.
func (p *Project) Open() error { return p.child.Open() }

// Next narrows the next child row. The returned row is reused.
func (p *Project) Next() (tuple.Row, bool, error) {
	row, ok, err := p.child.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	for i, ord := range p.ords {
		p.out[i] = row[ord]
	}
	p.ctx.count(1)
	return p.out, true, nil
}

// Close closes the child.
func (p *Project) Close() error {
	p.ctx.flush()
	return p.child.Close()
}

// Schema reports the projected schema.
func (p *Project) Schema() *tuple.Schema { return p.schema }
