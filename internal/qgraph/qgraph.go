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
	"math"
	"slices"
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
// by appending, not fmt, whose interface assertions on the operator and the
// kind cost an allocation now and then.
func (s Selection) Key() string {
	var buf [64]byte
	return string(s.AppendKey(buf[:0]))
}

// AppendKey appends Key's bytes to b. A caller that only looks the key up
// (m[string(s.AppendKey(buf[:0]))] over a stack buffer) allocates nothing.
func (s Selection) AppendKey(b []byte) []byte {
	b = append(b, "σ|"...)
	b = append(b, s.Rel...)
	b = append(b, '|')
	b = append(b, s.Col...)
	b = append(b, '|')
	b = append(b, s.Op.String()...)
	b = append(b, '|')
	b = strconv.AppendUint(b, uint64(s.Const.Kind()), 10)
	b = append(b, '|')
	return appendConst(b, s.Const)
}

// appendConst appends v.String()'s bytes.
func appendConst(b []byte, v tuple.Value) []byte {
	switch v.Kind() {
	case tuple.KindInt:
		return strconv.AppendInt(b, v.Int(), 10)
	case tuple.KindFloat:
		return strconv.AppendFloat(b, v.Float(), 'g', -1, 64)
	case tuple.KindString:
		b = append(b, '\'')
		b = append(b, v.Str()...)
		return append(b, '\'')
	case tuple.KindDate:
		b = append(b, "date("...)
		b = strconv.AppendInt(b, v.Int(), 10)
		return append(b, ')')
	default:
		return append(b, v.String()...)
	}
}

// sameAs reports whether s and o have the same Key without building either:
// equal fields, and constants of one kind that render alike — equal payloads,
// or two NaNs, which all render "NaN".
func (s Selection) sameAs(o Selection) bool {
	if s.Rel != o.Rel || s.Col != o.Col || s.Op != o.Op || s.Const.Kind() != o.Const.Kind() {
		return false
	}
	switch s.Const.Kind() {
	case tuple.KindInt, tuple.KindDate:
		return s.Const.Int() == o.Const.Int()
	case tuple.KindFloat:
		a, b := s.Const.Float(), o.Const.Float()
		return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
	case tuple.KindString:
		return s.Const.Str() == o.Const.Str()
	default:
		return s.Const.String() == o.Const.String()
	}
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

// Key is a canonical identity for the join, usable as a map key: the
// learner's and a durable profile's, so its bytes never change. Like
// Selection.Key it is built by concatenation, not fmt.
func (j Join) Key() string {
	return "⋈|" + j.LeftRel + "|" + j.LeftCol + "|" + j.RightRel + "|" + j.RightCol
}

// AppendKey appends Key's bytes to b, for a lookup that allocates nothing.
func (j Join) AppendKey(b []byte) []byte {
	b = append(b, "⋈|"...)
	b = append(b, j.LeftRel...)
	b = append(b, '|')
	b = append(b, j.LeftCol...)
	b = append(b, '|')
	b = append(b, j.RightRel...)
	b = append(b, '|')
	return append(b, j.RightCol...)
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
// edges. Each part list is kept sorted as the accessors return it — the
// relations by name, the edges by key, with each edge's key beside it — so
// reading a graph's parts, testing containment and building its key copy
// nothing. The zero value is an empty graph.
type Graph struct {
	rels     []string
	sels     []Selection
	selKeys  []string // selKeys[i] is sels[i].Key()
	joins    []Join
	joinKeys []string // joinKeys[i] is joins[i].Key()
}

// New returns an empty graph.
func New() *Graph { return &Graph{} }

// Clone returns a deep copy.
func (g *Graph) Clone() *Graph {
	return &Graph{
		rels:     slices.Clone(g.rels),
		sels:     slices.Clone(g.sels),
		selKeys:  slices.Clone(g.selKeys),
		joins:    slices.Clone(g.joins),
		joinKeys: slices.Clone(g.joinKeys),
	}
}

// AddRelation adds a relation vertex (idempotent).
func (g *Graph) AddRelation(rel string) {
	if i, ok := slices.BinarySearch(g.rels, rel); !ok {
		g.rels = inserted(g.rels, i, rel)
	}
}

// inserted is s with v at i, in a new array: a graph never writes to an
// array an accessor may have returned, so what Relations, Selections and
// Joins return is a snapshot whatever the graph does next.
func inserted[T any](s []T, i int, v T) []T {
	out := make([]T, len(s)+1)
	copy(out, s[:i])
	out[i] = v
	copy(out[i+1:], s[i:])
	return out
}

// deleted is s without its i-th element, in a new array (see inserted).
func deleted[T any](s []T, i int) []T {
	out := make([]T, len(s)-1)
	copy(out, s[:i])
	copy(out[i:], s[i+1:])
	return out
}

// AddSelection adds a selection edge, implicitly adding its relation vertex.
func (g *Graph) AddSelection(s Selection) {
	g.AddRelation(s.Rel)
	key := s.Key()
	i, ok := slices.BinarySearch(g.selKeys, key)
	if ok {
		// Selections with one key (two NaN constants) are one edge, the
		// last one added; the slice is replaced, not written into.
		g.sels = slices.Clone(g.sels)
		g.sels[i] = s
		return
	}
	g.sels = inserted(g.sels, i, s)
	g.selKeys = inserted(g.selKeys, i, key)
}

// AddJoin adds a join edge, implicitly adding both relation vertices.
func (g *Graph) AddJoin(j Join) {
	g.AddRelation(j.LeftRel)
	g.AddRelation(j.RightRel)
	key := j.Key()
	i, ok := slices.BinarySearch(g.joinKeys, key)
	if ok {
		return // a normalized join equal by key is equal by value
	}
	g.joins = inserted(g.joins, i, j)
	g.joinKeys = inserted(g.joinKeys, i, key)
}

// selection is the place of s among g's selections, or −1.
func (g *Graph) selection(s Selection) int {
	for i := range g.sels {
		if g.sels[i].sameAs(s) {
			return i
		}
	}
	return -1
}

// join is the place of j among g's joins, or −1.
func (g *Graph) join(j Join) int {
	for i := range g.joins {
		if g.joins[i] == j {
			return i
		}
	}
	return -1
}

// RemoveSelection removes a selection edge if present. The relation vertex
// remains (the user removed an annotation, not the table).
func (g *Graph) RemoveSelection(s Selection) {
	if i := g.selection(s); i >= 0 {
		g.sels = deleted(g.sels, i)
		g.selKeys = deleted(g.selKeys, i)
	}
}

// RemoveJoin removes a join edge if present.
func (g *Graph) RemoveJoin(j Join) {
	if i := g.join(j); i >= 0 {
		g.joins = deleted(g.joins, i)
		g.joinKeys = deleted(g.joinKeys, i)
	}
}

// RemoveRelation removes a relation vertex together with every incident edge.
func (g *Graph) RemoveRelation(rel string) {
	if i, ok := slices.BinarySearch(g.rels, rel); ok {
		g.rels = deleted(g.rels, i)
	}
	for i := len(g.sels) - 1; i >= 0; i-- {
		if g.sels[i].Rel == rel {
			g.sels = deleted(g.sels, i)
			g.selKeys = deleted(g.selKeys, i)
		}
	}
	for i := len(g.joins) - 1; i >= 0; i-- {
		if g.joins[i].Touches(rel) {
			g.joins = deleted(g.joins, i)
			g.joinKeys = deleted(g.joinKeys, i)
		}
	}
}

// HasRelation reports whether rel is a vertex of g.
func (g *Graph) HasRelation(rel string) bool {
	_, ok := slices.BinarySearch(g.rels, rel)
	return ok
}

// HasSelection reports whether the exact selection edge is present.
func (g *Graph) HasSelection(s Selection) bool { return g.selection(s) >= 0 }

// HasJoin reports whether the join edge is present.
func (g *Graph) HasJoin(j Join) bool { return g.join(j) >= 0 }

// Relations returns the relation vertices in sorted order. The slice is the
// graph's own, copied for no one: read it, never write to it. The graph
// replaces rather than edits it, so it stays as returned.
func (g *Graph) Relations() []string { return g.rels[:len(g.rels):len(g.rels)] }

// Selections returns the selection edges sorted by canonical key; the slice
// is the graph's own, as Relations says.
func (g *Graph) Selections() []Selection { return g.sels[:len(g.sels):len(g.sels)] }

// Joins returns the join edges sorted by canonical key; the slice is the
// graph's own, as Relations says.
func (g *Graph) Joins() []Join { return g.joins[:len(g.joins):len(g.joins)] }

// JoinsOn returns the join edges incident to rel, sorted.
func (g *Graph) JoinsOn(rel string) []Join {
	var out []Join
	for _, j := range g.joins {
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
	return sortedSubset(sub.rels, g.rels) && sortedSubset(sub.selKeys, g.selKeys) &&
		sortedSubset(sub.joinKeys, g.joinKeys)
}

// sortedSubset reports whether every element of sorted a is in sorted b.
func sortedSubset(a, b []string) bool {
	if len(a) > len(b) {
		return false
	}
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j == len(b) || b[j] != x {
			return false
		}
		j++
	}
	return true
}

// Equal reports whether g and o have identical parts.
func (g *Graph) Equal(o *Graph) bool {
	return slices.Equal(g.rels, o.rels) && slices.Equal(g.selKeys, o.selKeys) &&
		slices.Equal(g.joinKeys, o.joinKeys)
}

// IsConnected reports whether the relation vertices form one connected
// component under join edges. Graphs with ≤1 relation are connected.
func (g *Graph) IsConnected() bool {
	if len(g.rels) <= 1 {
		return true
	}
	seen := make([]bool, len(g.rels))
	seen[0] = true
	reached := 1
	for grew := true; grew; {
		grew = false
		for _, j := range g.joins {
			l, _ := slices.BinarySearch(g.rels, j.LeftRel)
			r, _ := slices.BinarySearch(g.rels, j.RightRel)
			if seen[l] != seen[r] {
				seen[l], seen[r] = true, true
				reached++
				grew = true
			}
		}
	}
	return reached == len(g.rels)
}

// Key returns a canonical string identity for the whole graph: equal graphs
// have equal keys. Used for caching, learning, and materialization lookup.
// It is every part's key ("R|" and the relation for a vertex), sorted and
// joined by ";": the vertices, then the selections, then the joins, since
// "R" sorts before "σ" and "σ" before "⋈".
func (g *Graph) Key() string { return g.PrefixedKey("") }

// PrefixedKey is prefix followed by Key, built in one allocation.
func (g *Graph) PrefixedKey(prefix string) string {
	n := len(prefix)
	for _, r := range g.rels {
		n += len("R|;") + len(r)
	}
	for _, k := range g.selKeys {
		n += len(k) + 1
	}
	for _, k := range g.joinKeys {
		n += len(k) + 1
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString(prefix)
	sep := func() {
		if b.Len() > len(prefix) {
			b.WriteByte(';')
		}
	}
	for _, r := range g.rels {
		sep()
		b.WriteString("R|")
		b.WriteString(r)
	}
	for _, k := range g.selKeys {
		sep()
		b.WriteString(k)
	}
	for _, k := range g.joinKeys {
		sep()
		b.WriteString(k)
	}
	return b.String()
}

// String renders the graph as a WHERE-clause-style description.
func (g *Graph) String() string {
	var b strings.Builder
	b.WriteString("{")
	b.WriteString(strings.Join(g.rels, ","))
	var conds []string
	for _, j := range g.joins {
		conds = append(conds, j.String())
	}
	for _, s := range g.sels {
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
	return selectionSubgraph(s, s.Key())
}

// selectionSubgraph is SelectionSubgraph with the selection's key known: the
// graph and its parts in one allocation.
func selectionSubgraph(s Selection, key string) *Graph {
	sub := &struct {
		g   Graph
		rel [1]string
		sel [1]Selection
		key [1]string
	}{rel: [1]string{s.Rel}, sel: [1]Selection{s}, key: [1]string{key}}
	sub.g = Graph{rels: sub.rel[:], sels: sub.sel[:], selKeys: sub.key[:]}
	return &sub.g
}

// JoinSubgraph returns the two-way-join sub-query for j within parent:
// both relations, the join edge, and *all selection edges attached to either
// relation in parent* — exactly the enumeration unit of Section 3.5.
func JoinSubgraph(parent *Graph, j Join) *Graph {
	if i := parent.join(j); i >= 0 {
		return parent.JoinSubgraphAt(i)
	}
	g := New()
	g.AddJoin(j)
	for _, s := range parent.sels {
		if j.Touches(s.Rel) {
			g.AddSelection(s)
		}
	}
	return g
}

// SelectionSubgraphAt is SelectionSubgraph of g's i-th selection, reusing
// the key g holds: one allocation.
func (g *Graph) SelectionSubgraphAt(i int) *Graph {
	return selectionSubgraph(g.sels[i], g.selKeys[i])
}

// JoinSubgraphAt is JoinSubgraph(g, g.Joins()[i]), reusing the keys g holds:
// its parts are a subsequence of g's, so they come sorted — one allocation,
// and two more when the join's relations carry selections.
func (g *Graph) JoinSubgraphAt(i int) *Graph {
	j := g.joins[i]
	n := 0
	for _, s := range g.sels {
		if j.Touches(s.Rel) {
			n++
		}
	}
	sub := &struct {
		g    Graph
		rels [2]string
		join [1]Join
		key  [1]string
	}{rels: [2]string{j.LeftRel, j.RightRel}, join: [1]Join{j}, key: [1]string{g.joinKeys[i]}}
	sub.g = Graph{rels: sub.rels[:], joins: sub.join[:], joinKeys: sub.key[:]}
	if n > 0 {
		sub.g.sels, sub.g.selKeys = make([]Selection, 0, n), make([]string, 0, n)
		for k, s := range g.sels {
			if j.Touches(s.Rel) {
				sub.g.sels = append(sub.g.sels, s)
				sub.g.selKeys = append(sub.g.selKeys, g.selKeys[k])
			}
		}
	}
	return &sub.g
}
