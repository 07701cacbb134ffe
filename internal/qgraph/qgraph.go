// Package qgraph implements query graphs exactly as Section 2 of the paper
// defines them: each relation in a conjunctive (select-project-join) query is
// a vertex; each join between two relations is an edge between their
// vertices; each selection is an edge to a constant vertex. The vertices and
// edges are the *atomic parts* of the query, and containment ⊆ over those
// parts is what Theorem 3.1's local formula, materialized-view matching and
// the Learner run on. The ∪ of property P2 only justifies that formula: no
// run-time path composes two graphs, so the package has no union operator.
//
// The graph model matches the paper's visual interface: a relation appears at
// most once per query (no self-joins), joins are equality joins, and
// selections compare a column to a constant.
package qgraph

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"specdb/internal/tuple"
)

// Selection is a selection edge: relation vertex → constant vertex.
type Selection struct {
	Rel   string
	Col   string
	Op    tuple.CmpOp
	Const tuple.Value
}

// Key is a canonical identity for the selection, usable as a map key: the
// learner's and a durable profile's, so its bytes never change. It is built
// by concatenation, not fmt, whose interface assertions on the operator and
// the kind cost an allocation now and then.
func (s Selection) Key() string {
	return "σ|" + s.Rel + "|" + s.Col + "|" + s.Op.String() + "|" +
		strconv.FormatUint(uint64(s.Const.Kind()), 10) + "|" + s.Const.String()
}

// String renders the selection as SQL text.
func (s Selection) String() string {
	return fmt.Sprintf("%s.%s %s %s", s.Rel, s.Col, s.Op, s.Const)
}

// Join is an equi-join edge between two relation vertices. It is stored
// normalized: (LeftRel, LeftCol) ≤ (RightRel, RightCol) lexicographically, so
// R.a=S.b and S.b=R.a are the same edge.
type Join struct {
	LeftRel, LeftCol   string
	RightRel, RightCol string
}

// NewJoin builds a normalized join edge. Joining a relation to itself panics:
// the interface model excludes self-joins, and every input boundary (session
// AddJoin/RemoveJoin, trace.Validate) screens for them first, so reaching
// this panic means internal code constructed an impossible edge.
func NewJoin(rel1, col1, rel2, col2 string) Join {
	if rel1 == rel2 {
		// invariant: every input boundary screens self-joins (see doc
		// comment), so this edge can only come from internal code.
		panic("qgraph: self-join on " + rel1)
	}
	if rel1 > rel2 {
		rel1, col1, rel2, col2 = rel2, col2, rel1, col1
	}
	return Join{LeftRel: rel1, LeftCol: col1, RightRel: rel2, RightCol: col2}
}

// Key is a canonical identity for the join, usable as a map key.
func (j Join) Key() string {
	return fmt.Sprintf("⋈|%s|%s|%s|%s", j.LeftRel, j.LeftCol, j.RightRel, j.RightCol)
}

// String renders the join as SQL text.
func (j Join) String() string {
	return fmt.Sprintf("%s.%s = %s.%s", j.LeftRel, j.LeftCol, j.RightRel, j.RightCol)
}

// Touches reports whether the edge is incident to relation rel.
func (j Join) Touches(rel string) bool { return j.LeftRel == rel || j.RightRel == rel }

// Other returns the relation on the opposite side of rel (ok=false if the
// edge does not touch rel).
func (j Join) Other(rel string) (string, bool) {
	switch rel {
	case j.LeftRel:
		return j.RightRel, true
	case j.RightRel:
		return j.LeftRel, true
	default:
		return "", false
	}
}

// Graph is a query graph: a set of relation vertices plus selection and join
// edges. The zero value is not usable; call New.
type Graph struct {
	rels  map[string]struct{}
	sels  map[string]Selection
	joins map[string]Join
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		rels:  make(map[string]struct{}),
		sels:  make(map[string]Selection),
		joins: make(map[string]Join),
	}
}

// Clone returns a deep copy.
func (g *Graph) Clone() *Graph {
	c := New()
	for r := range g.rels {
		c.rels[r] = struct{}{}
	}
	for k, s := range g.sels {
		c.sels[k] = s
	}
	for k, j := range g.joins {
		c.joins[k] = j
	}
	return c
}

// AddRelation adds a relation vertex (idempotent).
func (g *Graph) AddRelation(rel string) { g.rels[rel] = struct{}{} }

// AddSelection adds a selection edge, implicitly adding its relation vertex.
func (g *Graph) AddSelection(s Selection) {
	g.AddRelation(s.Rel)
	g.sels[s.Key()] = s
}

// AddJoin adds a join edge, implicitly adding both relation vertices.
func (g *Graph) AddJoin(j Join) {
	g.AddRelation(j.LeftRel)
	g.AddRelation(j.RightRel)
	g.joins[j.Key()] = j
}

// RemoveSelection removes a selection edge if present. The relation vertex
// remains (the user removed an annotation, not the table).
func (g *Graph) RemoveSelection(s Selection) { delete(g.sels, s.Key()) }

// RemoveJoin removes a join edge if present.
func (g *Graph) RemoveJoin(j Join) { delete(g.joins, j.Key()) }

// RemoveRelation removes a relation vertex together with every incident edge.
func (g *Graph) RemoveRelation(rel string) {
	delete(g.rels, rel)
	for k, s := range g.sels {
		if s.Rel == rel {
			delete(g.sels, k)
		}
	}
	for k, j := range g.joins {
		if j.Touches(rel) {
			delete(g.joins, k)
		}
	}
}

// HasRelation reports whether rel is a vertex of g.
func (g *Graph) HasRelation(rel string) bool {
	_, ok := g.rels[rel]
	return ok
}

// HasSelection reports whether the exact selection edge is present.
func (g *Graph) HasSelection(s Selection) bool {
	_, ok := g.sels[s.Key()]
	return ok
}

// HasJoin reports whether the join edge is present.
func (g *Graph) HasJoin(j Join) bool {
	_, ok := g.joins[j.Key()]
	return ok
}

// Relations returns the relation vertices in sorted order.
func (g *Graph) Relations() []string {
	out := make([]string, 0, len(g.rels))
	for r := range g.rels {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

// Selections returns the selection edges sorted by canonical key.
func (g *Graph) Selections() []Selection {
	keys := make([]string, 0, len(g.sels))
	for k := range g.sels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Selection, len(keys))
	for i, k := range keys {
		out[i] = g.sels[k]
	}
	return out
}

// Joins returns the join edges sorted by canonical key.
func (g *Graph) Joins() []Join {
	keys := make([]string, 0, len(g.joins))
	for k := range g.joins {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Join, len(keys))
	for i, k := range keys {
		out[i] = g.joins[k]
	}
	return out
}

// SelectionsOn returns the selection edges attached to rel, sorted.
func (g *Graph) SelectionsOn(rel string) []Selection {
	var out []Selection
	for _, s := range g.Selections() {
		if s.Rel == rel {
			out = append(out, s)
		}
	}
	return out
}

// JoinsOn returns the join edges incident to rel, sorted.
func (g *Graph) JoinsOn(rel string) []Join {
	var out []Join
	for _, j := range g.Joins() {
		if j.Touches(rel) {
			out = append(out, j)
		}
	}
	return out
}

// NumRelations, NumSelections, NumJoins report part counts.
func (g *Graph) NumRelations() int { return len(g.rels) }

// NumSelections reports the number of selection edges.
func (g *Graph) NumSelections() int { return len(g.sels) }

// NumJoins reports the number of join edges.
func (g *Graph) NumJoins() int { return len(g.joins) }

// IsEmpty reports whether the graph has no vertices at all.
func (g *Graph) IsEmpty() bool { return len(g.rels) == 0 }

// Contains reports sub ⊆ g over atomic parts: every relation vertex,
// selection edge, and join edge of sub appears in g. This is the ⊆ of the
// paper's cost model (property P1 and view matching both use it).
func (g *Graph) Contains(sub *Graph) bool {
	for r := range sub.rels {
		if !g.HasRelation(r) {
			return false
		}
	}
	for k := range sub.sels {
		if _, ok := g.sels[k]; !ok {
			return false
		}
	}
	for k := range sub.joins {
		if _, ok := g.joins[k]; !ok {
			return false
		}
	}
	return true
}

// Equal reports whether g and o have identical parts.
func (g *Graph) Equal(o *Graph) bool { return g.Contains(o) && o.Contains(g) }

// IsConnected reports whether the relation vertices form one connected
// component under join edges. Graphs with ≤1 relation are connected.
func (g *Graph) IsConnected() bool {
	if len(g.rels) <= 1 {
		return true
	}
	var start string
	for r := range g.rels {
		start = r
		break
	}
	seen := map[string]bool{start: true}
	frontier := []string{start}
	for len(frontier) > 0 {
		r := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		for _, j := range g.joins {
			if other, ok := j.Other(r); ok && !seen[other] {
				seen[other] = true
				frontier = append(frontier, other)
			}
		}
	}
	return len(seen) == len(g.rels)
}

// Key returns a canonical string identity for the whole graph: equal graphs
// have equal keys. Used for caching, learning, and materialization lookup.
func (g *Graph) Key() string {
	var parts []string
	for r := range g.rels {
		parts = append(parts, "R|"+r)
	}
	for k := range g.sels {
		parts = append(parts, k)
	}
	for k := range g.joins {
		parts = append(parts, k)
	}
	sort.Strings(parts)
	return strings.Join(parts, ";")
}

// String renders the graph as a WHERE-clause-style description.
func (g *Graph) String() string {
	var b strings.Builder
	b.WriteString("{")
	b.WriteString(strings.Join(g.Relations(), ","))
	var conds []string
	for _, j := range g.Joins() {
		conds = append(conds, j.String())
	}
	for _, s := range g.Selections() {
		conds = append(conds, s.String())
	}
	if len(conds) > 0 {
		b.WriteString(" | ")
		b.WriteString(strings.Join(conds, " AND "))
	}
	b.WriteString("}")
	return b.String()
}

// SelectionSubgraph returns the single-selection sub-query {s.Rel | s}: the
// shape the Speculator materializes for selection manipulations.
func SelectionSubgraph(s Selection) *Graph {
	g := New()
	g.AddSelection(s)
	return g
}

// JoinSubgraph returns the two-way-join sub-query for j within parent:
// both relations, the join edge, and *all selection edges attached to either
// relation in parent* — exactly the enumeration unit of Section 3.5.
func JoinSubgraph(parent *Graph, j Join) *Graph {
	g := New()
	g.AddJoin(j)
	for _, s := range parent.SelectionsOn(j.LeftRel) {
		g.AddSelection(s)
	}
	for _, s := range parent.SelectionsOn(j.RightRel) {
		g.AddSelection(s)
	}
	return g
}
