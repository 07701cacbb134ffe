package engine

import (
	"testing"

	"specdb/internal/buffer"
	"specdb/internal/plan"
	"specdb/internal/qgraph"
	"specdb/internal/tuple"
)

// TestExplainAnalyzeIsRunQueryWithoutRows: ExplainAnalyze runs RunQuery's
// plan-and-drain body with a profiler attached and counts the rows instead of
// keeping them. Two identical engines, one answering with RunQuery and one
// with ExplainAnalyze, must choose the same plan and report the same Work,
// Duration and row count, move the pool's counters by the same amounts and
// count the same statements, queries and rows — cold and then warm, on the
// default pool, on a 16-frame pool that recycles a frame on nearly every
// fetch, and through a forced view.
func TestExplainAnalyzeIsRunQueryWithoutRows(t *testing.T) {
	sel := qgraph.Selection{Rel: "R", Col: "c", Op: tuple.CmpGT, Const: tuple.NewInt(10)}
	forceView := func(t *testing.T, e *Engine) {
		if _, err := e.Materialize("spec_v", qgraph.SelectionSubgraph(sel), true); err != nil {
			t.Fatal(err)
		}
	}
	counters := []string{"engine.statements", "engine.queries", "engine.query.rows", "engine.replans"}
	for _, tc := range []struct {
		name  string
		pages int
		setup func(t *testing.T, e *Engine)
	}{
		{name: "default pool"},
		{name: "16-frame pool", pages: 16},
		{name: "forced view", setup: forceView},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var engines [2]*Engine
			for i := range engines {
				engines[i] = newTestEngine(t, 2000, Config{BufferPoolPages: tc.pages})
				if tc.setup != nil {
					tc.setup(t, engines[i])
				}
				if err := engines[i].ColdStart(); err != nil {
					t.Fatal(err)
				}
			}
			g := qgraph.SelectionSubgraph(sel)
			g.AddJoin(qgraph.NewJoin("R", "a", "S", "a"))
			q, err := plan.BindGraph(engines[0].Catalog, g)
			if err != nil {
				t.Fatal(err)
			}
			if tc.setup != nil {
				readsView := false
				node, err := plan.Optimize(engines[0].Catalog, q, engines[0].planOptions())
				if err != nil {
					t.Fatal(err)
				}
				plan.Walk(node, func(n plan.Node) {
					if a, ok := n.(*plan.TableAccess); ok && a.Table.Name == "spec_v" {
						readsView = true
					}
				})
				if !readsView {
					t.Fatal("the forced view does not shape the plan")
				}
			}

			type observed struct {
				res      *Result
				pool     buffer.Stats
				counters map[string]int64
			}
			run := func(e *Engine, stmt func(*plan.Query) (*Result, error)) observed {
				t.Helper()
				before, snap := e.Pool.Stats(), e.Metrics().Snapshot().Counters
				res, err := stmt(q)
				if err != nil {
					t.Fatal(err)
				}
				after, now := e.Pool.Stats(), e.Metrics().Snapshot().Counters
				o := observed{res: res, counters: map[string]int64{}, pool: buffer.Stats{
					Hits: after.Hits - before.Hits, Misses: after.Misses - before.Misses,
					Writes: after.Writes - before.Writes, Fetches: after.Fetches - before.Fetches,
				}}
				for _, name := range counters {
					o.counters[name] = now[name] - snap[name]
				}
				return o
			}
			for _, when := range []string{"cold", "warm"} {
				rq := run(engines[0], engines[0].RunQuery)
				ea := run(engines[1], engines[1].ExplainAnalyze)
				if ea.res.Rows != nil || ea.res.Analyzed == "" {
					t.Fatalf("%s: ExplainAnalyze returned %d rows and rendering %q", when, len(ea.res.Rows), ea.res.Analyzed)
				}
				if rq.res.RowCount == 0 || rq.res.RowCount != int64(len(rq.res.Rows)) || ea.res.RowCount != rq.res.RowCount {
					t.Fatalf("%s: RunQuery %d rows (RowCount %d), ExplainAnalyze RowCount %d", when, len(rq.res.Rows), rq.res.RowCount, ea.res.RowCount)
				}
				if a, b := plan.Explain(rq.res.Plan), plan.Explain(ea.res.Plan); a != b {
					t.Fatalf("%s: plans differ:\nRunQuery\n%s\nExplainAnalyze\n%s", when, a, b)
				}
				if rq.res.Work != ea.res.Work || rq.res.Duration != ea.res.Duration {
					t.Fatalf("%s: RunQuery did %+v in %v, ExplainAnalyze %+v in %v", when, rq.res.Work, rq.res.Duration, ea.res.Work, ea.res.Duration)
				}
				if rq.pool != ea.pool {
					t.Fatalf("%s: the pool moved by %+v under RunQuery, %+v under ExplainAnalyze", when, rq.pool, ea.pool)
				}
				for _, name := range counters {
					if rq.counters[name] != ea.counters[name] {
						t.Fatalf("%s: %s moved by %d under RunQuery, %d under ExplainAnalyze", when, name, rq.counters[name], ea.counters[name])
					}
				}
				if rq.counters["engine.query.rows"] != rq.res.RowCount || rq.counters["engine.replans"] != 0 {
					t.Fatalf("%s: counters moved by %v; want %d rows and no replan", when, rq.counters, rq.res.RowCount)
				}
				if when == "cold" && rq.pool.Misses == 0 {
					t.Fatalf("the cold run read nothing from disk: %+v", rq.pool)
				}
			}
		})
	}
}
