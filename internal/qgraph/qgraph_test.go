package qgraph

import (
	"testing"
	"testing/quick"

	"specdb/internal/sim"
	"specdb/internal/tuple"
)

func sel(rel, col string, op tuple.CmpOp, c int64) Selection {
	return Selection{Rel: rel, Col: col, Op: op, Const: tuple.NewInt(c)}
}

// figure2Graph builds the paper's Figure 2 example:
// R ⋈a S ⋈b W with R.c>10 and W.d<2000.
func figure2Graph() *Graph {
	g := New()
	g.AddJoin(NewJoin("R", "a", "S", "a"))
	g.AddJoin(NewJoin("S", "b", "W", "b"))
	g.AddSelection(sel("R", "c", tuple.CmpGT, 10))
	g.AddSelection(sel("W", "d", tuple.CmpLT, 2000))
	return g
}

func TestFigure2Shape(t *testing.T) {
	g := figure2Graph()
	if g.NumRelations() != 3 || g.NumJoins() != 2 || g.NumSelections() != 2 {
		t.Fatalf("parts: %d rels, %d joins, %d sels", g.NumRelations(), g.NumJoins(), g.NumSelections())
	}
	if !g.IsConnected() {
		t.Fatal("Figure 2 graph should be connected")
	}
	rels := g.Relations()
	if rels[0] != "R" || rels[1] != "S" || rels[2] != "W" {
		t.Fatalf("relations %v", rels)
	}
}

func TestJoinNormalization(t *testing.T) {
	a := NewJoin("S", "a", "R", "a")
	b := NewJoin("R", "a", "S", "a")
	if a != b {
		t.Fatalf("join not normalized: %+v vs %+v", a, b)
	}
	if a.Key() != b.Key() {
		t.Fatal("normalized joins have different keys")
	}
	g := New()
	g.AddJoin(a)
	if !g.HasJoin(b) {
		t.Fatal("graph misses reversed join")
	}
}

func TestSelfJoinPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("self-join did not panic")
		}
	}()
	NewJoin("R", "a", "R", "b")
}

func TestJoinOtherTouches(t *testing.T) {
	j := NewJoin("R", "a", "S", "b")
	if !j.Touches("R") || !j.Touches("S") || j.Touches("W") {
		t.Fatal("Touches wrong")
	}
	if o, ok := j.Other("R"); !ok || o != "S" {
		t.Fatal("Other(R) wrong")
	}
	if _, ok := j.Other("W"); ok {
		t.Fatal("Other(W) should be false")
	}
}

func TestContainment(t *testing.T) {
	g := figure2Graph()
	// σ(R.c>10) alone is contained.
	sub := SelectionSubgraph(sel("R", "c", tuple.CmpGT, 10))
	if !g.Contains(sub) {
		t.Fatal("selection subgraph not contained")
	}
	// Different constant is NOT contained (exact-part semantics).
	other := SelectionSubgraph(sel("R", "c", tuple.CmpGT, 11))
	if g.Contains(other) {
		t.Fatal("different constant should not be contained")
	}
	// Different operator is NOT contained.
	opv := SelectionSubgraph(sel("R", "c", tuple.CmpGE, 10))
	if g.Contains(opv) {
		t.Fatal("different op should not be contained")
	}
	// The graph contains itself and the empty graph.
	if !g.Contains(g.Clone()) || !g.Contains(New()) {
		t.Fatal("reflexive/empty containment failed")
	}
	// A join not in g.
	if g.Contains(func() *Graph { x := New(); x.AddJoin(NewJoin("R", "z", "W", "z")); return x }()) {
		t.Fatal("foreign join contained")
	}
}

func TestRemoveRelationCascades(t *testing.T) {
	g := figure2Graph()
	g.RemoveRelation("S")
	if g.HasRelation("S") {
		t.Fatal("S still present")
	}
	if g.NumJoins() != 0 {
		t.Fatalf("joins incident to S not removed: %v", g.Joins())
	}
	if g.NumSelections() != 2 {
		t.Fatal("selections on other relations should survive")
	}
	if g.IsConnected() {
		t.Fatal("R and W are now disconnected")
	}
}

func TestRemoveEdges(t *testing.T) {
	g := figure2Graph()
	g.RemoveSelection(sel("R", "c", tuple.CmpGT, 10))
	if g.NumSelections() != 1 {
		t.Fatal("selection not removed")
	}
	if !g.HasRelation("R") {
		t.Fatal("removing a selection must keep the relation vertex")
	}
	g.RemoveJoin(NewJoin("S", "a", "R", "a")) // reversed orientation
	if g.NumJoins() != 1 {
		t.Fatal("join not removed via reversed orientation")
	}
}

func TestSelectionsOnJoinsOn(t *testing.T) {
	g := figure2Graph()
	if got := g.SelectionsOn("R"); len(got) != 1 || got[0].Col != "c" {
		t.Fatalf("SelectionsOn(R) = %v", got)
	}
	if got := g.SelectionsOn("S"); len(got) != 0 {
		t.Fatalf("SelectionsOn(S) = %v", got)
	}
	if got := g.JoinsOn("S"); len(got) != 2 {
		t.Fatalf("JoinsOn(S) = %v", got)
	}
}

func TestJoinSubgraph(t *testing.T) {
	g := figure2Graph()
	jg := JoinSubgraph(g, NewJoin("R", "a", "S", "a"))
	// Must pull in R's selection but not W's.
	if !jg.HasSelection(sel("R", "c", tuple.CmpGT, 10)) {
		t.Fatal("join subgraph missing attached selection")
	}
	if jg.HasSelection(sel("W", "d", tuple.CmpLT, 2000)) {
		t.Fatal("join subgraph includes unattached selection")
	}
	if jg.NumRelations() != 2 || jg.NumJoins() != 1 {
		t.Fatalf("join subgraph shape: %v", jg)
	}
	if !g.Contains(jg) {
		t.Fatal("join subgraph must be contained in parent")
	}
}

func TestKeyCanonical(t *testing.T) {
	// Same parts added in different orders → same key.
	g1 := figure2Graph()
	g2 := New()
	g2.AddSelection(sel("W", "d", tuple.CmpLT, 2000))
	g2.AddJoin(NewJoin("W", "b", "S", "b"))
	g2.AddSelection(sel("R", "c", tuple.CmpGT, 10))
	g2.AddJoin(NewJoin("S", "a", "R", "a"))
	if g1.Key() != g2.Key() {
		t.Fatalf("canonical keys differ:\n%s\n%s", g1.Key(), g2.Key())
	}
	if !g1.Equal(g2) {
		t.Fatal("Equal disagrees with Key")
	}
	g2.RemoveSelection(sel("R", "c", tuple.CmpGT, 10))
	if g1.Key() == g2.Key() {
		t.Fatal("different graphs share a key")
	}
}

func TestCloneIndependence(t *testing.T) {
	g := figure2Graph()
	c := g.Clone()
	c.RemoveRelation("R")
	if !g.HasRelation("R") || g.NumJoins() != 2 {
		t.Fatal("clone aliases original")
	}
}

func TestConnectivity(t *testing.T) {
	g := New()
	if !g.IsConnected() {
		t.Fatal("empty graph is connected by convention")
	}
	g.AddRelation("A")
	if !g.IsConnected() {
		t.Fatal("single vertex is connected")
	}
	g.AddRelation("B")
	if g.IsConnected() {
		t.Fatal("two isolated vertices are not connected")
	}
	g.AddJoin(NewJoin("A", "x", "B", "x"))
	if !g.IsConnected() {
		t.Fatal("joined vertices are connected")
	}
}

// randomGraph builds a graph from a seed, over a fixed small vocabulary so
// that random pairs often overlap.
func randomGraph(r *sim.Rand) *Graph {
	rels := []string{"R", "S", "T", "U"}
	g := New()
	for _, rel := range rels {
		if r.Float64() < 0.6 {
			g.AddRelation(rel)
		}
	}
	for i := 0; i < len(rels); i++ {
		for k := i + 1; k < len(rels); k++ {
			if r.Float64() < 0.3 {
				g.AddJoin(NewJoin(rels[i], "a", rels[k], "a"))
			}
		}
	}
	for _, rel := range rels {
		if r.Float64() < 0.4 {
			g.AddSelection(sel(rel, "x", tuple.CmpGT, int64(r.Intn(3))))
		}
	}
	return g
}

// Property: containment is a partial order over parts, and Key identifies
// exactly the graphs Equal calls equal.
func TestGraphAlgebraProperties(t *testing.T) {
	f := func(seed uint64) bool {
		r := sim.NewRand(seed)
		a, b := randomGraph(r), randomGraph(r)
		if !a.Contains(a.Clone()) || !a.Contains(New()) {
			return false
		}
		// Antisymmetry: mutual containment is equality.
		if (a.Contains(b) && b.Contains(a)) != a.Equal(b) {
			return false
		}
		// Key/Equal consistency.
		if (a.Key() == b.Key()) != a.Equal(b) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestStringRendering(t *testing.T) {
	g := figure2Graph()
	s := g.String()
	for _, want := range []string{"R,S,W", "R.a = S.a", "R.c > 10", "W.d < 2000"} {
		if !contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}
