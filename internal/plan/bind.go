// Package plan is the cost-based optimizer: it binds SQL statements against
// the catalog into query graphs, enumerates access paths, join orders, and
// materialized-view rewrites, and produces executable physical plans with
// cost estimates expressed in simulated time.
//
// View handling implements both modes of Section 3.2 of the paper:
//   - query materialization: a matching view is an *option* the optimizer
//     costs against the base plan;
//   - query rewriting: a matching view marked Forced MUST replace the
//     sub-query it materializes.
package plan

import (
	"fmt"
	"slices"

	"specdb/internal/catalog"
	"specdb/internal/qgraph"
	"specdb/internal/sql"
	"specdb/internal/tuple"
)

// Query is a bound conjunctive query: its query graph plus an ordered list of
// fully qualified output columns.
type Query struct {
	Graph *qgraph.Graph
	// Projections are qualified "rel.col" names. Never empty after binding:
	// SELECT * is expanded to every column of every relation in canonical
	// (sorted-relation, schema) order, so plan output schemas are
	// deterministic regardless of join order.
	Projections []string
}

// Bind resolves a parsed SELECT against the catalog, producing a bound Query.
// It validates table and column existence, resolves unqualified column
// references, and type-checks predicates.
func Bind(cat *catalog.Catalog, stmt *sql.SelectStmt) (*Query, error) {
	if len(stmt.From) == 0 {
		return nil, fmt.Errorf("plan: query has no FROM relations")
	}
	tables := make(map[string]*catalog.Table, len(stmt.From))
	g := qgraph.New()
	for _, name := range stmt.From {
		t, err := cat.Table(name)
		if err != nil {
			return nil, err
		}
		if _, dup := tables[name]; dup {
			return nil, fmt.Errorf("plan: relation %q appears twice in FROM (self-joins are outside the dialect)", name)
		}
		tables[name] = t
		g.AddRelation(name)
	}

	resolve := func(ref sql.ColRef) (rel, col string, kind tuple.Kind, err error) {
		if ref.Rel != "" {
			t, ok := tables[ref.Rel]
			if !ok {
				return "", "", 0, fmt.Errorf("plan: relation %q not in FROM", ref.Rel)
			}
			ord := t.Schema.Ordinal(ref.Col)
			if ord < 0 {
				return "", "", 0, fmt.Errorf("plan: relation %q has no column %q", ref.Rel, ref.Col)
			}
			return ref.Rel, ref.Col, t.Schema.Columns[ord].Kind, nil
		}
		// Unqualified: must be unambiguous across FROM relations.
		var foundRel string
		var foundKind tuple.Kind
		for _, name := range stmt.From {
			if ord := tables[name].Schema.Ordinal(ref.Col); ord >= 0 {
				if foundRel != "" {
					return "", "", 0, fmt.Errorf("plan: column %q is ambiguous (%s and %s)", ref.Col, foundRel, name)
				}
				foundRel = name
				foundKind = tables[name].Schema.Columns[ord].Kind
			}
		}
		if foundRel == "" {
			return "", "", 0, fmt.Errorf("plan: column %q not found in any FROM relation", ref.Col)
		}
		return foundRel, ref.Col, foundKind, nil
	}

	for _, cond := range stmt.Where {
		lrel, lcol, lkind, err := resolve(cond.Left)
		if err != nil {
			return nil, err
		}
		if cond.IsJoin() {
			rrel, rcol, rkind, err := resolve(*cond.RightCol)
			if err != nil {
				return nil, err
			}
			if lrel == rrel {
				return nil, fmt.Errorf("plan: join condition %s relates %q to itself", cond, lrel)
			}
			if lkind != rkind {
				return nil, fmt.Errorf("plan: join %s compares %v with %v", cond, lkind, rkind)
			}
			g.AddJoin(qgraph.NewJoin(lrel, lcol, rrel, rcol))
			continue
		}
		c := *cond.RightConst
		if err := checkComparable(lkind, c.Kind()); err != nil {
			return nil, fmt.Errorf("plan: selection %s: %w", cond, err)
		}
		g.AddSelection(qgraph.Selection{Rel: lrel, Col: lcol, Op: cond.Op, Const: c})
	}

	q := &Query{Graph: g}
	if len(stmt.Projections) == 0 {
		sorted := make([]*catalog.Table, 0, len(tables))
		for _, rel := range g.Relations() {
			sorted = append(sorted, tables[rel])
		}
		q.Projections = starProjections(sorted)
	} else {
		for _, ref := range stmt.Projections {
			rel, col, _, err := resolve(ref)
			if err != nil {
				return nil, err
			}
			q.Projections = append(q.Projections, rel+"."+col)
		}
	}
	return q, nil
}

// BindGraph produces a bound Query directly from a query graph with SELECT *
// projections — the path the speculation subsystem uses for materializations,
// which bypasses SQL text entirely.
func BindGraph(cat *catalog.Catalog, g *qgraph.Graph) (*Query, error) {
	rels := g.Relations()
	if len(rels) == 0 {
		return nil, fmt.Errorf("plan: empty query graph")
	}
	// tables[i] is rels[i]'s table; the graph holds every edge's relations.
	var buf [8]*catalog.Table
	tables := buf[:0]
	for _, name := range rels {
		t, err := cat.Table(name)
		if err != nil {
			return nil, err
		}
		tables = append(tables, t)
	}
	table := func(rel string) *catalog.Table {
		i, _ := slices.BinarySearch(rels, rel)
		return tables[i]
	}
	for _, s := range g.Selections() {
		t := table(s.Rel)
		ord := t.Schema.Ordinal(s.Col)
		if ord < 0 {
			return nil, fmt.Errorf("plan: relation %q has no column %q", s.Rel, s.Col)
		}
		if err := checkComparable(t.Schema.Columns[ord].Kind, s.Const.Kind()); err != nil {
			return nil, fmt.Errorf("plan: selection %s: %w", s, err)
		}
	}
	for _, j := range g.Joins() {
		lt, rt := table(j.LeftRel), table(j.RightRel)
		lo := lt.Schema.Ordinal(j.LeftCol)
		ro := rt.Schema.Ordinal(j.RightCol)
		if lo < 0 || ro < 0 {
			return nil, fmt.Errorf("plan: join %s references missing column", j)
		}
		if lt.Schema.Columns[lo].Kind != rt.Schema.Columns[ro].Kind {
			return nil, fmt.Errorf("plan: join %s compares mismatched kinds", j)
		}
	}
	return &Query{Graph: g, Projections: starProjections(tables)}, nil
}

// BindGraphProjections is BindGraph with explicit qualified projections
// ("rel.col"); an empty list means SELECT *. Used by the speculation
// subsystem to run final queries carrying the interface's projection
// annotations.
func BindGraphProjections(cat *catalog.Catalog, g *qgraph.Graph, projs []string) (*Query, error) {
	q, err := BindGraph(cat, g)
	if err != nil {
		return nil, err
	}
	if len(projs) == 0 {
		return q, nil
	}
	valid := make(map[string]bool, len(q.Projections))
	for _, p := range q.Projections {
		valid[p] = true
	}
	var kept []string
	for _, p := range projs {
		if valid[p] {
			kept = append(kept, p)
		}
	}
	// Annotations referencing relations no longer in the query are dropped;
	// an empty survivor set falls back to SELECT * (what the interface
	// renders when no annotation applies).
	if len(kept) > 0 {
		q.Projections = kept
	}
	return q, nil
}

// starProjections expands SELECT * over tables, in relation-name order, into
// canonical qualified column order, with the names each table qualified once
// (catalog.Table.Qualified): one allocation.
func starProjections(tables []*catalog.Table) []string {
	n := 0
	for _, t := range tables {
		n += t.Schema.Len()
	}
	out := make([]string, 0, n)
	for _, t := range tables {
		for _, c := range t.Qualified().Columns {
			out = append(out, c.Name)
		}
	}
	return out
}

// checkComparable verifies a column kind can be compared to a constant kind.
func checkComparable(col, constant tuple.Kind) error {
	numeric := func(k tuple.Kind) bool {
		return k == tuple.KindInt || k == tuple.KindFloat || k == tuple.KindDate
	}
	if numeric(col) && numeric(constant) {
		return nil
	}
	if col == tuple.KindString && constant == tuple.KindString {
		return nil
	}
	return fmt.Errorf("cannot compare %v column with %v constant", col, constant)
}
