package sql

import (
	"fmt"
	"slices"
	"strings"

	"specdb/internal/qgraph"
	"specdb/internal/tuple"
)

// RenderForm renders a query graph plus a qualified projection list
// ("rel.col" strings) as a SELECT statement — the textual identity of a
// predicted final query form (DESIGN.md §14). The rendering is canonical:
// relations, selections, and joins appear in their sorted graph order, so two
// graphs with equal keys render byte-identically.
func RenderForm(g *qgraph.Graph, projs []string) *SelectStmt {
	stmt := &SelectStmt{From: slices.Clone(g.Relations())}
	for _, p := range projs {
		if i := strings.IndexByte(p, '.'); i >= 0 {
			stmt.Projections = append(stmt.Projections, ColRef{Rel: p[:i], Col: p[i+1:]})
		} else {
			stmt.Projections = append(stmt.Projections, ColRef{Col: p})
		}
	}
	for _, s := range g.Selections() {
		c := s.Const
		stmt.Where = append(stmt.Where, Condition{
			Left:       ColRef{Rel: s.Rel, Col: s.Col},
			Op:         s.Op,
			RightConst: &c,
		})
	}
	for _, j := range g.Joins() {
		right := ColRef{Rel: j.RightRel, Col: j.RightCol}
		stmt.Where = append(stmt.Where, Condition{
			Left:     ColRef{Rel: j.LeftRel, Col: j.LeftCol},
			Op:       tuple.CmpEQ,
			RightCol: &right,
		})
	}
	return stmt
}

// GraphOfSelect reconstructs the query graph and qualified projection list a
// SELECT statement denotes, catalog-free — the inverse of RenderForm. Every
// column reference must be relation-qualified and resolve inside FROM (a
// catalog could disambiguate bare columns; a form cannot), and self-joins are
// rejected at this boundary like every other input boundary, so the round
// trip RenderForm → String → Parse → GraphOfSelect reproduces the original
// graph key exactly.
func GraphOfSelect(stmt *SelectStmt) (*qgraph.Graph, []string, error) {
	g := qgraph.New()
	have := make(map[string]bool, len(stmt.From))
	for _, rel := range stmt.From {
		if have[rel] {
			return nil, nil, fmt.Errorf("sql: relation %s appears twice in FROM", rel)
		}
		have[rel] = true
		g.AddRelation(rel)
	}
	qualified := func(c ColRef) error {
		if c.Rel == "" {
			return fmt.Errorf("sql: form column %s must be relation-qualified", c.Col)
		}
		if !have[c.Rel] {
			return fmt.Errorf("sql: column %s references a relation outside FROM", c)
		}
		return nil
	}
	projs := make([]string, 0, len(stmt.Projections))
	for _, p := range stmt.Projections {
		if err := qualified(p); err != nil {
			return nil, nil, err
		}
		projs = append(projs, p.Rel+"."+p.Col)
	}
	for _, c := range stmt.Where {
		if err := qualified(c.Left); err != nil {
			return nil, nil, err
		}
		if c.IsJoin() {
			if err := qualified(*c.RightCol); err != nil {
				return nil, nil, err
			}
			if c.RightCol.Rel == c.Left.Rel {
				return nil, nil, fmt.Errorf("sql: self-join on %s", c.Left.Rel)
			}
			g.AddJoin(qgraph.NewJoin(c.Left.Rel, c.Left.Col, c.RightCol.Rel, c.RightCol.Col))
		} else {
			g.AddSelection(qgraph.Selection{Rel: c.Left.Rel, Col: c.Left.Col, Op: c.Op, Const: *c.RightConst})
		}
	}
	return g, projs, nil
}
