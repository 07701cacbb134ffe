package plan

import (
	"fmt"
	"sort"

	"specdb/internal/btree"
	"specdb/internal/catalog"
	"specdb/internal/sim"
	"specdb/internal/stats"
	"specdb/internal/tuple"
)

// Coster computes cardinality and cost estimates. The formulas mirror what
// the executor actually charges (per-page I/O on buffer misses, per-tuple CPU
// per operator), so estimates track actual simulated durations — up to
// estimation error, which is deliberate: mis-estimates are the paper's source
// of speculation penalties (Section 6.1).
type Coster struct {
	Rates sim.CostRates
	// Stats resolves a qualified column name ("rel.col") to its statistics,
	// for whichever table provides that column in the current cover. May
	// return nil (no statistics → System-R defaults).
	Stats func(qualifiedCol string) *stats.ColumnStats
	// WorkMemBytes mirrors exec.Context.WorkMemBytes for spill costing.
	WorkMemBytes int64
}

// rowWidth estimates a row's encoded width in bytes from its schema. A plan
// node carries its output's width (Node.width), so spill costing sums small
// integers instead of building a joined schema for every candidate.
func rowWidth(s *tuple.Schema) int {
	b := 0
	for _, c := range s.Columns {
		switch c.Kind {
		case tuple.KindFloat:
			b += 8
		case tuple.KindString:
			b += 14
		default:
			b += 4
		}
	}
	return b
}

func (c *Coster) colStats(qualified string) *stats.ColumnStats {
	if c.Stats == nil {
		return nil
	}
	return c.Stats(qualified)
}

// predSelectivity estimates one residual predicate.
func (c *Coster) predSelectivity(p PredSpec) float64 {
	return c.colStats(p.Col).EstimateSelectivity(p.Op, p.Const)
}

// edgeSelectivity estimates one equi-join edge.
func (c *Coster) edgeSelectivity(e JoinEdgeSpec) float64 {
	return stats.EstimateJoinSelectivity(c.colStats(e.LeftCol), c.colStats(e.RightCol))
}

// qualified is the name a stored column of a table read under qualifier has
// in plans: "qualifier.col", or the stored name itself for a view, whose
// columns are stored qualified.
func qualified(qualifier, col string) string {
	if qualifier == "" {
		return col
	}
	return qualifier + "." + col
}

// SeqAccess builds a sequential-scan access with residual filters.
func (c *Coster) SeqAccess(table *catalog.Table, qualifier string, rels []string, filters []PredSpec, colFilters []JoinEdgeSpec) *TableAccess {
	a := &TableAccess{
		Table:      table,
		Qualifier:  qualifier,
		Rels:       rels,
		Method:     AccessSeq,
		Filters:    filters,
		ColFilters: colFilters,
		widthBytes: rowWidth(table.Schema),
	}
	n := float64(table.RowCount())
	rows := n
	for _, f := range filters {
		rows *= c.predSelectivity(f)
	}
	for _, e := range colFilters {
		rows *= c.edgeSelectivity(e)
	}
	a.rows = rows
	cost := sim.Duration(table.NumPages()) * c.Rates.PageRead
	cost += sim.Duration(n) * c.Rates.Tuple // scan emits every row
	if len(filters) > 0 {
		cost += sim.Duration(n) * c.Rates.Tuple // filter touches every row
	}
	if len(colFilters) > 0 {
		cost += sim.Duration(n) * c.Rates.Tuple
	}
	a.cost = cost
	return a
}

// IndexAccess builds an index-scan access driven by one predicate, with the
// remaining predicates as residual filters. indexCol is the stored column
// name; driving describes the predicate satisfied by the [lo, hi] bounds.
func (c *Coster) IndexAccess(table *catalog.Table, qualifier string, rels []string, indexCol string, driving PredSpec, lo, hi btree.Bound, residual []PredSpec, colFilters []JoinEdgeSpec) *TableAccess {
	a := &TableAccess{
		Table:      table,
		Qualifier:  qualifier,
		Rels:       rels,
		Method:     AccessIndex,
		IndexCol:   indexCol,
		Lo:         lo,
		Hi:         hi,
		Filters:    residual,
		ColFilters: colFilters,
		widthBytes: rowWidth(table.Schema),
	}
	n := float64(table.RowCount())
	drivingSel := c.predSelectivity(driving)
	match := n * drivingSel
	rows := match
	for _, f := range residual {
		rows *= c.predSelectivity(f)
	}
	for _, e := range colFilters {
		rows *= c.edgeSelectivity(e)
	}
	a.rows = rows

	idx := table.Index(indexCol)
	height := 2.0
	leafPages := 1.0
	if idx != nil {
		height = float64(idx.Tree.Height())
		leafPages = float64(idx.Tree.NumPages()) * drivingSel
	}
	// Unclustered fetches: one page read per matching row, capped at the
	// table size: exec.IndexScan sorts its RIDs into heap order and so reads
	// each table page at most once, whatever the pool holds.
	fetchPages := match
	if cap := float64(table.NumPages()); fetchPages > cap {
		fetchPages = cap
	}
	io := height + leafPages + fetchPages
	cost := sim.Duration(io) * c.Rates.PageRead
	cost += sim.Duration(match) * c.Rates.Tuple
	if len(residual) > 0 {
		cost += sim.Duration(match) * c.Rates.Tuple
	}
	if len(colFilters) > 0 {
		cost += sim.Duration(match) * c.Rates.Tuple
	}
	a.cost = cost
	return a
}

// Join builds a join node with estimates. For JoinHash, left is the build
// side; callers should pass the smaller estimated side as left. For
// JoinIndexNL, right must be a *TableAccess with an index on the right
// column of edges[0].
func (c *Coster) Join(method JoinMethod, left, right Node, edges []JoinEdgeSpec) (*JoinNode, error) {
	if method != JoinCross && len(edges) == 0 {
		return nil, fmt.Errorf("plan: %v requires join edges", method)
	}
	if method == JoinHash && len(edges) > 1 {
		// The first edge drives the hash table; the rest run as a residual
		// filter over the PRIMARY matches, so the most selective edge must
		// go first or the intermediate blows up (e.g. joining two fact
		// tables through a tiny shared dimension key).
		edges = append([]JoinEdgeSpec(nil), edges...)
		sort.SliceStable(edges, func(a, b int) bool {
			return c.edgeSelectivity(edges[a]) < c.edgeSelectivity(edges[b])
		})
	}
	j := &JoinNode{
		Method:     method,
		Left:       left,
		Right:      right,
		Edges:      edges,
		widthBytes: left.width() + right.width(),
	}
	lrows, rrows := left.Rows(), right.Rows()
	// primaryMatches is the stream the physical join emits before residual
	// edges filter it; out is after all edges.
	primaryMatches := lrows * rrows
	if len(edges) > 0 {
		primaryMatches *= c.edgeSelectivity(edges[0])
	}
	out := primaryMatches
	for _, e := range edges[min(1, len(edges)):] {
		out *= c.edgeSelectivity(e)
	}
	j.rows = out

	switch method {
	case JoinHash:
		cost := left.Cost() + right.Cost()
		cost += sim.Duration(lrows+rrows) * c.Rates.Tuple    // build + probe
		cost += sim.Duration(primaryMatches) * c.Rates.Tuple // emit primary matches
		if len(edges) > 1 {
			cost += sim.Duration(primaryMatches) * c.Rates.Tuple // residual filter pass
		}
		if c.WorkMemBytes > 0 {
			buildBytes := lrows * float64(left.width())
			if buildBytes > float64(c.WorkMemBytes) {
				// GRACE spill: both sides written and re-read.
				spillPages := (buildBytes + rrows*float64(right.width())) / 8192
				cost += sim.Duration(spillPages) * (c.Rates.PageWrite + c.Rates.PageRead)
			}
		}
		j.cost = cost
	case JoinIndexNL:
		access, ok := right.(*TableAccess)
		if !ok {
			return nil, fmt.Errorf("plan: IndexNL right side must be a table access")
		}
		storedCol := access.storedCol(edges[0].RightCol)
		idx := access.Table.Index(storedCol)
		if idx == nil {
			return nil, fmt.Errorf("plan: no index on %s.%s for IndexNL", access.Table.Name, storedCol)
		}
		innerRows := float64(access.Table.RowCount())
		perProbeMatches := innerRows * c.edgeSelectivity(edges[0])
		probeIO := float64(idx.Tree.Height()) + perProbeMatches // tree descent + row fetches
		cost := left.Cost()
		cost += sim.Duration(lrows*probeIO) * c.Rates.PageRead
		cost += sim.Duration(lrows*perProbeMatches) * c.Rates.Tuple
		cost += sim.Duration(primaryMatches) * c.Rates.Tuple
		if len(edges) > 1 {
			cost += sim.Duration(primaryMatches) * c.Rates.Tuple
		}
		j.cost = cost
	case JoinCross:
		cost := left.Cost() + right.Cost()
		cost += sim.Duration(lrows*rrows) * c.Rates.Tuple
		j.cost = cost
	default:
		return nil, fmt.Errorf("plan: unknown join method %d", method)
	}
	return j, nil
}

// Project builds the final projection node.
func (c *Coster) Project(child Node, cols []string) (*ProjectNode, error) {
	in := child.Schema()
	outCols := make([]tuple.Column, len(cols))
	for i, name := range cols {
		ord := in.Ordinal(name)
		if ord < 0 {
			return nil, fmt.Errorf("plan: projection column %q not produced by plan (schema %v)", name, in)
		}
		outCols[i] = in.Columns[ord]
	}
	return &ProjectNode{
		Child:  child,
		Cols:   cols,
		schema: tuple.NewProjection(outCols...),
		cost:   child.Cost() + sim.Duration(child.Rows())*c.Rates.Tuple,
	}, nil
}

// StatsResolver builds the Stats function for a set of table accesses: each
// qualified column resolves to the statistics of the table providing it. The
// names come from each table's stored schema, so no access builds its own.
func StatsResolver(accesses []*TableAccess) func(string) *stats.ColumnStats {
	type provider struct {
		table  *catalog.Table
		stored string
	}
	m := make(map[string]provider)
	for _, a := range accesses {
		for _, col := range a.Table.Schema.Columns {
			m[qualified(a.Qualifier, col.Name)] = provider{table: a.Table, stored: col.Name}
		}
	}
	return func(qualified string) *stats.ColumnStats {
		p, ok := m[qualified]
		if !ok {
			return nil
		}
		return p.table.ColumnStats(p.stored)
	}
}
