package plan

import (
	"path/filepath"
	"testing"

	"specdb/internal/exec"
	"specdb/internal/golden"
	"specdb/internal/sql"
	"specdb/internal/tuple"
)

// goldenCases cover the rendering paths of Explain and ExplainAnalyze: a bare
// scan, an index scan, a selection with projection, and a multi-way join whose
// inner index lookups are fused into the join operator (rendered as
// "actual fused" because the profiler never sees the inner iterator).
var goldenCases = []struct {
	name    string
	query   string
	indexes [][2]string // table, column
}{
	{name: "seqscan", query: "SELECT * FROM R"},
	{name: "selection", query: "SELECT c FROM R WHERE R.c > 10"},
	{name: "indexscan", query: "SELECT * FROM S WHERE S.a = 5", indexes: [][2]string{{"S", "a"}}},
	{name: "join_hash", query: "SELECT * FROM R, S WHERE R.a = S.a AND R.c > 10"},
	{name: "join_indexnl", query: "SELECT * FROM O, K WHERE O.k = K.k", indexes: [][2]string{{"K", "k"}}},
	{name: "join_threeway", query: "SELECT R.c, W.d FROM R, S, W WHERE R.a = S.a AND S.b = W.b AND R.c > 10",
		indexes: [][2]string{{"S", "a"}, {"W", "b"}}},
}

// TestExplainGolden pins the estimate-only EXPLAIN rendering against
// testdata/<name>.explain.golden. Regenerate with: go test ./internal/plan -run Golden -update
func TestExplainGolden(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			node, _ := buildGoldenPlan(t, tc.query, tc.indexes, false)
			golden.Check(t, filepath.Join("testdata", tc.name+".explain.golden"), Explain(node))
		})
	}
}

// TestExplainAnalyzeGolden executes each plan with an attached profiler on a
// cold pool and pins the full EXPLAIN ANALYZE rendering — actual rows, the
// simulated cost of each node's subtree, and per-node page I/O — against
// testdata/<name>.analyze.golden. Everything in the fixture is deterministic
// (fixed data, fixed rates, fresh environment per case), so the actuals are
// stable bytes.
func TestExplainAnalyzeGolden(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			node, analyzed := buildGoldenPlan(t, tc.query, tc.indexes, true)
			_ = node
			golden.Check(t, filepath.Join("testdata", tc.name+".analyze.golden"), analyzed)
		})
	}
}

// buildGoldenPlan sets up a fresh RSW environment, optimizes query, and — when
// analyze is set — runs it once with a profiler attached, returning the
// ExplainAnalyze rendering.
func buildGoldenPlan(t *testing.T, query string, indexes [][2]string, analyze bool) (Node, string) {
	t.Helper()
	e := newEnv(t)
	e.loadRSW(t, 2000)
	// K is a big relation with a unique key, O a small outer probing it: the
	// shape where the optimizer picks an index nested-loop join, whose fused
	// inner side exerces the "actual fused" rendering.
	kSchema := tuple.NewSchema(
		tuple.Column{Name: "k", Kind: tuple.KindInt},
		tuple.Column{Name: "v", Kind: tuple.KindInt},
	)
	oSchema := tuple.NewSchema(
		tuple.Column{Name: "k", Kind: tuple.KindInt},
		tuple.Column{Name: "x", Kind: tuple.KindInt},
	)
	var kRows, oRows []tuple.Row
	for i := 0; i < 20000; i++ {
		kRows = append(kRows, tuple.Row{tuple.NewInt(int64(i)), tuple.NewInt(int64(i % 7))})
	}
	for i := 0; i < 10; i++ {
		oRows = append(oRows, tuple.Row{tuple.NewInt(int64(i * 97)), tuple.NewInt(int64(i))})
	}
	e.addTable(t, "K", kSchema, kRows)
	e.addTable(t, "O", oSchema, oRows)
	for _, ix := range indexes {
		tb, err := e.cat.Table(ix[0])
		if err != nil {
			t.Fatal(err)
		}
		e.indexOn(t, tb, ix[1])
	}
	stmt, err := sql.ParseSelect(query)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Bind(e.cat, stmt)
	if err != nil {
		t.Fatal(err)
	}
	node, err := Optimize(e.cat, q, e.opt)
	if err != nil {
		t.Fatal(err)
	}
	if !analyze {
		return node, ""
	}
	// Cold pool: the analyze goldens should show real page reads, not a
	// fully-resident cache left over from loading.
	if err := e.pool.EvictAll(); err != nil {
		t.Fatal(err)
	}
	prof := exec.NewProfiler()
	ctx := exec.NewContext(e.meter)
	prof.Attach(ctx)
	it, err := node.Build(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exec.Count(it); err != nil {
		t.Fatal(err)
	}
	return node, ExplainAnalyze(node, prof, e.opt.Rates)
}
