package plan

import (
	"fmt"
	"strings"

	"specdb/internal/btree"
	"specdb/internal/catalog"
	"specdb/internal/exec"
	"specdb/internal/sim"
	"specdb/internal/tuple"
)

// Node is a physical plan operator with cardinality and cost estimates.
type Node interface {
	// Schema is the qualified output schema, built on the first call: the
	// cost model prices plans whose schemas nothing reads, and the engine
	// takes a run's output schema from the built operators. A first call
	// writes the node, so a plan is read by one goroutine until its root's
	// Schema has been called once; that call builds every node's.
	Schema() *tuple.Schema
	// Rows is the estimated output cardinality.
	Rows() float64
	// Cost is the estimated cumulative cost of producing all output rows.
	Cost() sim.Duration
	// Build instantiates the executable iterator tree.
	Build(ctx *exec.Context) (exec.Iterator, error)

	explain(b *strings.Builder, depth int)
	// header is the operator line without estimates — shared by Explain
	// and ExplainAnalyze renderings.
	header() string
	// width is the estimated encoded width of an output row in bytes
	// (rowWidth of the output schema), what spill costing multiplies.
	width() int
}

// PredSpec is a selection predicate in plan form, with a qualified column
// name resolved at Build time.
type PredSpec struct {
	Col   string // qualified, e.g. "lineitem.l_qty"
	Op    tuple.CmpOp
	Const tuple.Value
}

// String renders the predicate.
func (p PredSpec) String() string {
	return fmt.Sprintf("%s %s %s", p.Col, p.Op, p.Const)
}

// JoinEdgeSpec is one equi-join edge between two sub-plans, as qualified
// column names: LeftCol of the left sub-plan, RightCol of the right.
type JoinEdgeSpec = exec.JoinEdge

// AccessMethod distinguishes table access paths.
type AccessMethod uint8

// Access methods.
const (
	AccessSeq AccessMethod = iota
	AccessIndex
)

// TableAccess reads one stored table (base relation or materialized view)
// with optional index access and residual filters.
type TableAccess struct {
	Table     *catalog.Table
	Qualifier string // "" for views (already-qualified stored columns)
	Method    AccessMethod
	// Index-access fields (Method == AccessIndex):
	IndexCol string // stored column name
	Lo, Hi   btree.Bound
	// Filters are residual predicates applied after the access, with
	// qualified column names.
	Filters []PredSpec
	// ColFilters are residual column=column predicates internal to this
	// access (a query join edge between relations already joined inside a
	// materialized view).
	ColFilters []JoinEdgeSpec

	schema     *tuple.Schema // built by the first Schema call
	widthBytes int
	rows       float64
	cost       sim.Duration
}

// Schema implements Node: the table's schema under qualified names — a
// base table's shared Qualified schema, a view's stored one.
func (a *TableAccess) Schema() *tuple.Schema {
	if a.schema == nil {
		switch a.Qualifier {
		case "":
			a.schema = a.Table.Schema
		case a.Table.Name:
			a.schema = a.Table.Qualified()
		default:
			a.schema = a.Table.Schema.Rename(func(n string) string { return a.Qualifier + "." + n })
		}
	}
	return a.schema
}

func (a *TableAccess) width() int { return a.widthBytes }

// Rows implements Node.
func (a *TableAccess) Rows() float64 { return a.rows }

// Cost implements Node.
func (a *TableAccess) Cost() sim.Duration { return a.cost }

// storedCol translates a qualified column name to the table's stored name.
func (a *TableAccess) storedCol(qualified string) string { return storedName(a.Qualifier, qualified) }

// Build implements Node. The scan takes the selections itself and tests them
// before it decodes a record.
func (a *TableAccess) Build(ctx *exec.Context) (exec.Iterator, error) {
	var preds []exec.Pred
	if len(a.Filters) > 0 {
		preds = make([]exec.Pred, len(a.Filters))
		for i, f := range a.Filters {
			p, err := exec.CompilePred(a.Schema(), f.Col, f.Op, f.Const)
			if err != nil {
				return nil, err
			}
			preds[i] = p
		}
	}
	var it exec.Iterator
	switch a.Method {
	case AccessSeq:
		it = exec.NewSeqScan(ctx, a.Table, a.Qualifier).Where(preds...)
	case AccessIndex:
		idx := a.Table.Index(a.IndexCol)
		if idx == nil {
			return nil, fmt.Errorf("plan: index on %s.%s vanished", a.Table.Name, a.IndexCol)
		}
		it = exec.NewIndexScan(ctx, a.Table, idx, a.Lo, a.Hi, a.Qualifier).Where(preds...)
	default:
		return nil, fmt.Errorf("plan: unknown access method %d", a.Method)
	}
	if len(a.ColFilters) > 0 {
		preds := make([]exec.ColPred, len(a.ColFilters))
		for i, e := range a.ColFilters {
			p, err := exec.CompileColPred(it.Schema(), e.LeftCol, tuple.CmpEQ, e.RightCol)
			if err != nil {
				return nil, err
			}
			preds[i] = p
		}
		it = exec.NewColFilter(ctx, it, preds)
	}
	return ctx.Instrument(a, it), nil
}

func (a *TableAccess) header() string {
	var b strings.Builder
	switch a.Method {
	case AccessSeq:
		fmt.Fprintf(&b, "SeqScan %s", a.Table.Name)
	case AccessIndex:
		fmt.Fprintf(&b, "IndexScan %s on %s", a.Table.Name, a.IndexCol)
	}
	if len(a.Filters) > 0 {
		parts := make([]string, len(a.Filters))
		for i, f := range a.Filters {
			parts[i] = f.String()
		}
		fmt.Fprintf(&b, " filter[%s]", strings.Join(parts, " AND "))
	}
	return b.String()
}

func (a *TableAccess) explain(b *strings.Builder, depth int) {
	pad(b, depth)
	fmt.Fprintf(b, "%s  (rows=%.0f cost=%v)\n", a.header(), a.rows, a.cost)
}

// JoinMethod distinguishes physical join operators.
type JoinMethod uint8

// Join methods.
const (
	JoinHash JoinMethod = iota
	JoinIndexNL
	JoinCross
)

func (m JoinMethod) String() string {
	switch m {
	case JoinHash:
		return "HashJoin"
	case JoinIndexNL:
		return "IndexNLJoin"
	case JoinCross:
		return "CrossJoin"
	default:
		return "Join?"
	}
}

// JoinNode joins two sub-plans. For JoinIndexNL the right child must be a
// *TableAccess whose table has an index on the right join column.
type JoinNode struct {
	Method      JoinMethod
	Left, Right Node
	// Edges are the equi-join edges between the sides (empty for JoinCross).
	// Edges[0] drives the physical join; the rest are residual: a hash join
	// tests them itself on each candidate pair, the others get a ColFilter.
	Edges []JoinEdgeSpec

	schema     *tuple.Schema // built by the first Schema call
	widthBytes int
	rows       float64
	cost       sim.Duration
}

// Schema implements Node: the left side's columns, then the right side's.
func (j *JoinNode) Schema() *tuple.Schema {
	if j.schema == nil {
		j.schema = j.Left.Schema().Concat(j.Right.Schema())
	}
	return j.schema
}

func (j *JoinNode) width() int { return j.widthBytes }

// Rows implements Node.
func (j *JoinNode) Rows() float64 { return j.rows }

// Cost implements Node.
func (j *JoinNode) Cost() sim.Duration { return j.cost }

// Build implements Node.
func (j *JoinNode) Build(ctx *exec.Context) (exec.Iterator, error) {
	left, err := j.Left.Build(ctx)
	if err != nil {
		return nil, err
	}
	var it exec.Iterator
	switch j.Method {
	case JoinHash:
		right, err := j.Right.Build(ctx)
		if err != nil {
			return nil, err
		}
		// Left is the build side by construction (optimizer puts the smaller
		// estimated side on the left).
		hj, err := exec.NewHashJoin(ctx, left, right, j.Edges[0].LeftCol, j.Edges[0].RightCol, j.Edges[1:]...)
		if err != nil {
			return nil, err
		}
		return ctx.Instrument(j, hj), nil
	case JoinIndexNL:
		access, ok := j.Right.(*TableAccess)
		if !ok {
			return nil, fmt.Errorf("plan: IndexNL right side is %T, want TableAccess", j.Right)
		}
		storedCol := access.storedCol(j.Edges[0].RightCol)
		idx := access.Table.Index(storedCol)
		if idx == nil {
			return nil, fmt.Errorf("plan: IndexNL without index on %s.%s", access.Table.Name, storedCol)
		}
		// Residual table filters run against the stored schema inside the
		// index probe.
		var inner []exec.Pred
		for _, f := range access.Filters {
			p, err := exec.CompilePred(access.Table.Schema, access.storedCol(f.Col), f.Op, f.Const)
			if err != nil {
				return nil, err
			}
			inner = append(inner, p)
		}
		nl, err := exec.NewIndexNLJoin(ctx, left, j.Edges[0].LeftCol, access.Table, idx, access.Qualifier, inner)
		if err != nil {
			return nil, err
		}
		it = nl
	case JoinCross:
		right, err := j.Right.Build(ctx)
		if err != nil {
			return nil, err
		}
		it = exec.NewCrossJoin(ctx, left, right)
	default:
		return nil, fmt.Errorf("plan: unknown join method %d", j.Method)
	}
	if len(j.Edges) > 1 {
		// An index join is driven by one edge; the others filter its output.
		preds := make([]exec.ColPred, 0, len(j.Edges)-1)
		for _, e := range j.Edges[1:] {
			p, err := exec.CompileColPred(it.Schema(), e.LeftCol, tuple.CmpEQ, e.RightCol)
			if err != nil {
				return nil, err
			}
			preds = append(preds, p)
		}
		it = exec.NewColFilter(ctx, it, preds)
	}
	return ctx.Instrument(j, it), nil
}

func (j *JoinNode) header() string {
	var b strings.Builder
	b.WriteString(j.Method.String())
	if len(j.Edges) > 0 {
		parts := make([]string, len(j.Edges))
		for i, e := range j.Edges {
			parts[i] = e.LeftCol + " = " + e.RightCol
		}
		fmt.Fprintf(&b, " (%s)", strings.Join(parts, " AND "))
	}
	return b.String()
}

func (j *JoinNode) explain(b *strings.Builder, depth int) {
	pad(b, depth)
	fmt.Fprintf(b, "%s  (rows=%.0f cost=%v)\n", j.header(), j.rows, j.cost)
	j.Left.explain(b, depth+1)
	j.Right.explain(b, depth+1)
}

// ProjectNode narrows the child to the query's output columns.
type ProjectNode struct {
	Child Node
	Cols  []string // qualified names

	schema *tuple.Schema // built by the first Schema call
	cost   sim.Duration
}

// Schema implements Node: the named columns of the child's schema, in
// order (the optimizer checked that the child produces each).
func (p *ProjectNode) Schema() *tuple.Schema {
	if p.schema == nil {
		in := p.Child.Schema()
		cols := make([]tuple.Column, len(p.Cols))
		for i, name := range p.Cols {
			cols[i] = in.Columns[in.MustOrdinal(name)]
		}
		p.schema = tuple.NewProjection(cols...)
	}
	return p.schema
}

func (p *ProjectNode) width() int { return rowWidth(p.Schema()) }

// Rows implements Node.
func (p *ProjectNode) Rows() float64 { return p.Child.Rows() }

// Cost implements Node.
func (p *ProjectNode) Cost() sim.Duration { return p.cost }

// Build implements Node.
func (p *ProjectNode) Build(ctx *exec.Context) (exec.Iterator, error) {
	child, err := p.Child.Build(ctx)
	if err != nil {
		return nil, err
	}
	it, err := exec.NewProject(ctx, child, p.Cols)
	if err != nil {
		return nil, err
	}
	return ctx.Instrument(p, it), nil
}

func (p *ProjectNode) header() string {
	return fmt.Sprintf("Project [%s]", strings.Join(p.Cols, ", "))
}

func (p *ProjectNode) explain(b *strings.Builder, depth int) {
	pad(b, depth)
	fmt.Fprintf(b, "%s  (rows=%.0f cost=%v)\n", p.header(), p.Rows(), p.cost)
	p.Child.explain(b, depth+1)
}

// Explain renders a plan tree as indented text.
func Explain(n Node) string {
	var b strings.Builder
	n.explain(&b, 0)
	return b.String()
}

func pad(b *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
}
