package qgraph

import (
	"math"
	"strconv"
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
	// A join's sub-graph takes the selections on its relations: R's, not W's.
	if got := g.JoinSubgraphAt(0).Selections(); len(got) != 1 || got[0].Col != "c" {
		t.Fatalf("selections of the R–S sub-graph = %v", got)
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

// TestSubgraphsAtMatchBuilders: the sub-graphs built from a parent's parts,
// with the parent's keys, equal the ones built part by part, key for key.
func TestSubgraphsAtMatchBuilders(t *testing.T) {
	f := func(seed uint64) bool {
		g := randomGraph(sim.NewRand(seed))
		for i, s := range g.Selections() {
			want := New()
			want.AddSelection(s)
			if got := g.SelectionSubgraphAt(i); !got.Equal(want) || got.Key() != want.Key() {
				return false
			}
		}
		for i, j := range g.Joins() {
			want := New()
			want.AddJoin(j)
			for _, s := range g.Selections() {
				if j.Touches(s.Rel) {
					want.AddSelection(s)
				}
			}
			got := g.JoinSubgraphAt(i)
			if !got.Equal(want) || got.Key() != want.Key() || got.PrefixedKey("mat|") != "mat|"+want.Key() {
				return false
			}
			// A sub-graph grown later does not write into its parent.
			got.AddSelection(sel(j.LeftRel, "y", tuple.CmpEQ, 1))
			if g.HasSelection(sel(j.LeftRel, "y", tuple.CmpEQ, 1)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestAccessorsAreSnapshots: a graph never writes into a slice its
// accessors returned, so a caller may edit the graph while it walks one.
func TestAccessorsAreSnapshots(t *testing.T) {
	g := figure2Graph()
	rels, sels, joins := g.Relations(), g.Selections(), g.Joins()
	for _, s := range sels {
		g.RemoveSelection(s)
	}
	for _, j := range joins {
		g.RemoveJoin(j)
	}
	g.AddRelation("A")
	g.RemoveRelation("W")
	if len(sels) != 2 || sels[0].Rel != "R" || sels[1].Rel != "W" || len(joins) != 2 ||
		len(rels) != 3 || rels[0] != "R" || rels[2] != "W" {
		t.Fatalf("accessor slices moved under edits: %v %v %v", rels, sels, joins)
	}
	if g.NumSelections() != 0 || g.NumJoins() != 0 || g.Key() != "R|A;R|R;R|S" {
		t.Fatalf("edited graph %q", g.Key())
	}
}

// TestHasSelectionMatchesKeys: a graph finds a selection exactly when their
// keys are equal, whatever the constant — −0 against +0, NaN against NaN,
// an int against a float of the same value, strings.
func TestHasSelectionMatchesKeys(t *testing.T) {
	consts := []tuple.Value{
		tuple.NewInt(0), tuple.NewInt(7), tuple.NewFloat(0), tuple.NewFloat(math.Copysign(0, -1)),
		tuple.NewFloat(7), tuple.NewFloat(math.NaN()), tuple.NewFloat(math.Float64frombits(0x7ff8000000000001)),
		tuple.NewFloat(math.Inf(1)), tuple.NewString("7"), tuple.NewString(""), tuple.NewDate(7),
	}
	for _, a := range consts {
		g := New()
		sa := Selection{Rel: "R", Col: "c", Op: tuple.CmpEQ, Const: a}
		g.AddSelection(sa)
		for _, b := range consts {
			for _, op := range []tuple.CmpOp{tuple.CmpEQ, tuple.CmpLT} {
				sb := Selection{Rel: "R", Col: "c", Op: op, Const: b}
				if got, want := g.HasSelection(sb), sa.Key() == sb.Key(); got != want {
					t.Errorf("HasSelection(%s) in {%s} = %v, keys equal %v", sb.Key(), sa.Key(), got, want)
				}
			}
		}
	}
}

// TestKeysKeepTheirBytes: Selection.Key is its parts joined by "|" with the
// constant's String, and Join.Key likewise, whatever the constant's kind;
// AppendKey appends the same bytes.
func TestKeysKeepTheirBytes(t *testing.T) {
	for _, c := range []tuple.Value{
		tuple.NewInt(-12), tuple.NewFloat(2.5e-9), tuple.NewFloat(math.NaN()), tuple.NewFloat(math.Copysign(0, -1)),
		tuple.NewString("a|b"), tuple.NewDate(9000),
	} {
		s := Selection{Rel: "lineitem", Col: "l_shipdate", Op: tuple.CmpGE, Const: c}
		want := "σ|lineitem|l_shipdate|>=|" + strconv.Itoa(int(c.Kind())) + "|" + c.String()
		if s.Key() != want || string(s.AppendKey([]byte("x"))) != "x"+want {
			t.Errorf("Selection.Key() = %q, want %q", s.Key(), want)
		}
	}
	j := NewJoin("orders", "o_orderkey", "lineitem", "l_orderkey")
	want := "⋈|lineitem|l_orderkey|orders|o_orderkey"
	if j.Key() != want || string(j.AppendKey(nil)) != want {
		t.Errorf("Join.Key() = %q, AppendKey %q, want %q", j.Key(), j.AppendKey(nil), want)
	}
}

// TestReadsAllocateNothing: reading a graph's parts, testing containment and
// membership allocate nothing, a key is one allocation, and a walk's
// sub-graphs are one (a selection's) or three (a join's with selections).
func TestReadsAllocateNothing(t *testing.T) {
	g := figure2Graph()
	sub := JoinSubgraph(g, NewJoin("R", "a", "S", "a"))
	r := sel("R", "c", tuple.CmpGT, 10)
	for _, c := range []struct {
		name string
		want float64
		f    func()
	}{
		{"reads", 0, func() {
			_, _, _ = g.Relations(), g.Selections(), g.Joins()
			_, _, _ = g.Contains(sub), g.Equal(sub), g.HasSelection(r)
			_ = g.HasJoin(NewJoin("S", "b", "W", "b"))
		}},
		{"key", 1, func() { _ = g.PrefixedKey("mat|") }},
		{"selection sub-graph", 1, func() { _ = g.SelectionSubgraphAt(0) }},
		{"join sub-graph", 3, func() { _ = g.JoinSubgraphAt(0) }},
	} {
		if got := testing.AllocsPerRun(10, c.f); got != c.want {
			t.Errorf("%s: %.0f allocations, want %.0f", c.name, got, c.want)
		}
	}
}
