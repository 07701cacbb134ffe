package engine

import (
	"testing"

	"specdb/internal/buffer"
	"specdb/internal/plan"
	"specdb/internal/qgraph"
	"specdb/internal/tuple"
)

// TestCountQueryIsRunQueryWithoutRows: CountQuery is RunQuery's statement and
// differs only in how it drains. Two identical engines, one answering with
// RunQuery and one with CountQuery, must choose the same plan and report the
// same Work, Duration and row count, move the pool's counters by the same
// amounts and count the same statements, queries, rows and replans — cold and
// then warm, on the default pool, on a 16-frame pool that recycles a frame on
// nearly every fetch, through a forced view, and through a forced view whose
// pages are gone, so that the first plan fails and the statement replans
// against the base tables.
func TestCountQueryIsRunQueryWithoutRows(t *testing.T) {
	sel := qgraph.Selection{Rel: "R", Col: "c", Op: tuple.CmpGT, Const: tuple.NewInt(10)}
	// forceView forces a view of sel; with lose set its heap pages are then
	// freed behind the engine's back, so reading it fails.
	forceView := func(lose bool) func(t *testing.T, e *Engine) {
		return func(t *testing.T, e *Engine) {
			if _, err := e.Materialize("spec_v", qgraph.SelectionSubgraph(sel), true); err != nil {
				t.Fatal(err)
			}
			vt, err := e.Catalog.Table("spec_v")
			if err != nil || !lose {
				return
			}
			if err := e.ColdStart(); err != nil {
				t.Fatal(err)
			}
			for _, id := range vt.Heap.PageIDs() {
				if err := e.Disk.Free(id); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	counters := []string{"engine.statements", "engine.queries", "engine.query.rows", "engine.replans"}
	for _, tc := range []struct {
		name    string
		pages   int
		setup   func(t *testing.T, e *Engine)
		replans int64 // per run
	}{
		{name: "default pool"},
		{name: "16-frame pool", pages: 16},
		{name: "forced view", setup: forceView(false)},
		{name: "degraded replan", setup: forceView(true), replans: 1},
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
					t.Fatal("the forced view does not shape the first plan")
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
				cq := run(engines[1], engines[1].CountQuery)
				if cq.res.Rows != nil {
					t.Fatalf("%s: CountQuery returned %d rows", when, len(cq.res.Rows))
				}
				if rq.res.RowCount == 0 || rq.res.RowCount != int64(len(rq.res.Rows)) || cq.res.RowCount != rq.res.RowCount {
					t.Fatalf("%s: RunQuery %d rows (RowCount %d), CountQuery RowCount %d", when, len(rq.res.Rows), rq.res.RowCount, cq.res.RowCount)
				}
				if a, b := plan.Explain(rq.res.Plan), plan.Explain(cq.res.Plan); a != b {
					t.Fatalf("%s: plans differ:\nRunQuery\n%s\nCountQuery\n%s", when, a, b)
				}
				if a, b := rq.res.Schema.String(), cq.res.Schema.String(); a != b {
					t.Fatalf("%s: schemas differ: %s, %s", when, a, b)
				}
				if rq.res.Work != cq.res.Work || rq.res.Duration != cq.res.Duration {
					t.Fatalf("%s: RunQuery did %+v in %v, CountQuery %+v in %v", when, rq.res.Work, rq.res.Duration, cq.res.Work, cq.res.Duration)
				}
				if rq.pool != cq.pool {
					t.Fatalf("%s: the pool moved by %+v under RunQuery, %+v under CountQuery", when, rq.pool, cq.pool)
				}
				for _, name := range counters {
					if rq.counters[name] != cq.counters[name] {
						t.Fatalf("%s: %s moved by %d under RunQuery, %d under CountQuery", when, name, rq.counters[name], cq.counters[name])
					}
				}
				if rq.counters["engine.query.rows"] != rq.res.RowCount || rq.counters["engine.replans"] != tc.replans {
					t.Fatalf("%s: counters moved by %v; want %d rows and %d replans", when, rq.counters, rq.res.RowCount, tc.replans)
				}
				if when == "cold" && rq.pool.Misses == 0 {
					t.Fatalf("the cold run read nothing from disk: %+v", rq.pool)
				}
			}
		})
	}
}
