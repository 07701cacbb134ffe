package plan

import (
	"fmt"
	"sort"
	"testing"

	"specdb/internal/exec"
	"specdb/internal/qgraph"
	"specdb/internal/sim"
	"specdb/internal/tuple"
)

// TestViewRewriteEquivalenceProperty is the optimizer's central safety
// property: for random queries and random forced views over sub-graphs of
// those queries, the rewritten plan must return exactly the same multiset of
// rows as the plan over base relations. This is what makes speculative
// rewriting sound.
func TestViewRewriteEquivalenceProperty(t *testing.T) {
	r := sim.NewRand(31337)
	for trial := 0; trial < 12; trial++ {
		e := newEnv(t)
		e.loadRSW(t, 150+r.Intn(150))

		// Random query over R ⋈ S ⋈ W with random selections.
		g := qgraph.New()
		g.AddJoin(qgraph.NewJoin("R", "a", "S", "a"))
		g.AddJoin(qgraph.NewJoin("S", "b", "W", "b"))
		sels := []qgraph.Selection{
			{Rel: "R", Col: "c", Op: tuple.CmpGT, Const: tuple.NewInt(r.Int63n(23))},
			{Rel: "W", Col: "d", Op: tuple.CmpLT, Const: tuple.NewInt(r.Int63n(3000))},
			{Rel: "S", Col: "b", Op: tuple.CmpLE, Const: tuple.NewInt(r.Int63n(31))},
		}
		nSels := 1 + r.Intn(3)
		for _, s := range sels[:nSels] {
			g.AddSelection(s)
		}

		// Baseline result before any views exist.
		baseline := e.execute(t, g)

		// Materialize a random sub-query as a FORCED view: either one
		// selection edge or one join edge with attached selections —
		// exactly the Speculator's manipulation shapes.
		var sub *qgraph.Graph
		if r.Intn(2) == 0 {
			all := g.Selections()
			sub = qgraph.SelectionSubgraph(all[r.Intn(len(all))])
		} else {
			joins := g.Joins()
			sub = qgraph.JoinSubgraph(g, joins[r.Intn(len(joins))])
		}
		e.materializeView(t, fmt.Sprintf("mv_trial%d", trial), sub, true)

		rewritten := e.execute(t, g)
		if len(baseline) != len(rewritten) {
			t.Fatalf("trial %d: baseline %d rows, rewritten %d rows (view %v over query %v)",
				trial, len(baseline), len(rewritten), sub, g)
		}
		for i := range baseline {
			if baseline[i] != rewritten[i] {
				t.Fatalf("trial %d: row %d differs: %s vs %s", trial, i, baseline[i], rewritten[i])
			}
		}
	}
}

// execute plans and runs a graph query, returning its sorted row renderings.
func (e *env) execute(t *testing.T, g *qgraph.Graph) []string {
	t.Helper()
	q, err := BindGraph(e.cat, g)
	if err != nil {
		t.Fatal(err)
	}
	node, err := Optimize(e.cat, q, e.opt)
	if err != nil {
		t.Fatal(err)
	}
	it, err := node.Build(exec.NewContext(e.meter))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := exec.Collect(it)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(rows))
	for i, row := range rows {
		out[i] = row.String()
	}
	sort.Strings(out)
	return out
}

// TestOptimizerNeverWorsensWithViews: adding an OPTIONAL view must never
// make the chosen plan's estimated cost higher — the optimizer can always
// ignore it.
func TestOptimizerNeverWorsensWithViews(t *testing.T) {
	r := sim.NewRand(99)
	e := newEnv(t)
	e.loadRSW(t, 400)
	e.opt.UseViews = true

	g := qgraph.New()
	g.AddJoin(qgraph.NewJoin("R", "a", "S", "a"))
	g.AddSelection(qgraph.Selection{Rel: "R", Col: "c", Op: tuple.CmpGT, Const: tuple.NewInt(15)})

	q, err := BindGraph(e.cat, g)
	if err != nil {
		t.Fatal(err)
	}
	before, err := Optimize(e.cat, q, e.opt)
	if err != nil {
		t.Fatal(err)
	}
	// Add three random optional views.
	for i := 0; i < 3; i++ {
		sub := qgraph.SelectionSubgraph(qgraph.Selection{
			Rel: "R", Col: "c", Op: tuple.CmpGT, Const: tuple.NewInt(15 + r.Int63n(3)),
		})
		if !g.Contains(sub) && sub.Selections()[0].Const.Int() != 15 {
			continue
		}
		e.materializeView(t, fmt.Sprintf("opt_v%d", i), sub, false)
	}
	after, err := Optimize(e.cat, q, e.opt)
	if err != nil {
		t.Fatal(err)
	}
	if after.Cost() > before.Cost() {
		t.Fatalf("optional views raised estimated cost: %v -> %v", before.Cost(), after.Cost())
	}
}
