package engine

import (
	"fmt"
	"strings"
	"testing"

	"specdb/internal/plan"
	"specdb/internal/qgraph"
	"specdb/internal/tuple"
)

// newTestEngine builds an engine with the Figure 2 relations R(a,c), S(a,b),
// W(b,d), loaded with n deterministic rows each and analyzed.
func newTestEngine(t *testing.T, n int, cfg Config) *Engine {
	t.Helper()
	if cfg.BufferPoolPages == 0 {
		cfg.BufferPoolPages = 256
	}
	e := New(cfg)
	mk := func(name string, cols [2]string, gen func(i int) (int64, int64)) {
		schema := tuple.NewSchema(
			tuple.Column{Name: cols[0], Kind: tuple.KindInt},
			tuple.Column{Name: cols[1], Kind: tuple.KindInt},
		)
		if _, err := e.CreateTable(name, schema); err != nil {
			t.Fatal(err)
		}
		rows := make([]tuple.Row, n)
		for i := 0; i < n; i++ {
			a, b := gen(i)
			rows[i] = tuple.Row{tuple.NewInt(a), tuple.NewInt(b)}
		}
		if err := e.InsertRows(name, rows); err != nil {
			t.Fatal(err)
		}
		if err := e.Analyze(name, nil); err != nil {
			t.Fatal(err)
		}
	}
	mk("R", [2]string{"a", "c"}, func(i int) (int64, int64) { return int64(i % 50), int64(i % 23) })
	mk("S", [2]string{"a", "b"}, func(i int) (int64, int64) { return int64(i % 50), int64(i % 31) })
	mk("W", [2]string{"b", "d"}, func(i int) (int64, int64) { return int64(i % 31), int64(i * 37 % 3000) })
	return e
}

func TestExecQuery(t *testing.T) {
	e := newTestEngine(t, 200, Config{})
	res, err := e.Exec("SELECT * FROM R WHERE R.c < 5")
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for i := 0; i < 200; i++ {
		if i%23 < 5 {
			want++
		}
	}
	if int(res.RowCount) != want || len(res.Rows) != want {
		t.Fatalf("RowCount=%d rows=%d, want %d", res.RowCount, len(res.Rows), want)
	}
	if res.Duration <= 0 {
		t.Fatalf("duration %v", res.Duration)
	}
	if res.Work.Tuples == 0 {
		t.Fatal("no tuples charged")
	}
}

func TestExecExplain(t *testing.T) {
	e := newTestEngine(t, 50, Config{})
	res, err := e.Exec("EXPLAIN SELECT * FROM R, S WHERE R.a = S.a")
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan == nil || res.Rows != nil {
		t.Fatal("EXPLAIN should plan without executing")
	}
}

func TestExecParseError(t *testing.T) {
	e := newTestEngine(t, 10, Config{})
	if _, err := e.Exec("SELEKT"); err == nil {
		t.Fatal("bad SQL should fail")
	}
	if _, err := e.Exec("SELECT * FROM nope"); err == nil {
		t.Fatal("unknown table should fail")
	}
}

func TestMaterializeViaSQLInto(t *testing.T) {
	e := newTestEngine(t, 200, Config{})
	res, err := e.Exec("SELECT * FROM R WHERE R.c > 10 INTO TABLE young")
	if err != nil {
		t.Fatal(err)
	}
	if res.RowCount == 0 {
		t.Fatal("nothing materialized")
	}
	vt, err := e.Catalog.Table("young")
	if err != nil {
		t.Fatal(err)
	}
	if vt.RowCount() != res.RowCount {
		t.Fatalf("stored %d rows, result says %d", vt.RowCount(), res.RowCount)
	}
	// Stored columns are qualified.
	if vt.Schema.Ordinal("R.c") < 0 {
		t.Fatalf("view schema %v", vt.Schema)
	}
	// View registered (non-forced for SQL INTO).
	v := e.Catalog.View("young")
	if v == nil || v.Forced {
		t.Fatalf("view registration %+v", v)
	}
	// Stats available.
	if vt.ColumnStats("R.c") == nil || vt.ColumnStats("R.c").Count != res.RowCount {
		t.Fatal("view not analyzed")
	}
}

func TestMaterializeGraphForcedRewrite(t *testing.T) {
	e := newTestEngine(t, 400, Config{})
	g := qgraph.SelectionSubgraph(qgraph.Selection{
		Rel: "R", Col: "c", Op: tuple.CmpGT, Const: tuple.NewInt(10),
	})
	mres, err := e.Materialize("spec_1", g, true)
	if err != nil {
		t.Fatal(err)
	}
	if mres.RowCount == 0 || mres.Duration <= 0 {
		t.Fatalf("materialization result %+v", mres)
	}

	// The final query containing the subgraph must be rewritten.
	res, err := e.Exec("SELECT * FROM R WHERE R.c > 10")
	if err != nil {
		t.Fatal(err)
	}
	planText := planString(res)
	if !strings.Contains(planText, "spec_1") {
		t.Fatalf("forced rewrite missing:\n%s", planText)
	}
	want := 0
	for i := 0; i < 400; i++ {
		if i%23 > 10 {
			want++
		}
	}
	if int(res.RowCount) != want {
		t.Fatalf("rewritten answer %d rows, want %d", res.RowCount, want)
	}

	// Rewritten execution must beat executing from scratch on a cold pool:
	// the materialized table is a fraction of R.
	if err := e.ColdStart(); err != nil {
		t.Fatal(err)
	}
	rewritten, err := e.Exec("SELECT * FROM R WHERE R.c > 10")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.DropTable("spec_1"); err != nil {
		t.Fatal(err)
	}
	if err := e.ColdStart(); err != nil {
		t.Fatal(err)
	}
	scratch, err := e.Exec("SELECT * FROM R WHERE R.c > 10")
	if err != nil {
		t.Fatal(err)
	}
	if rewritten.Duration >= scratch.Duration {
		t.Fatalf("rewrite (%v) not faster than scratch (%v)", rewritten.Duration, scratch.Duration)
	}
}

func TestMaterializeDuplicateName(t *testing.T) {
	e := newTestEngine(t, 50, Config{})
	g := qgraph.SelectionSubgraph(qgraph.Selection{
		Rel: "R", Col: "c", Op: tuple.CmpGT, Const: tuple.NewInt(5),
	})
	if _, err := e.Materialize("m", g, true); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Materialize("m", g, true); err == nil {
		t.Fatal("duplicate materialization name should fail")
	}
}

func TestCreateIndexAndUse(t *testing.T) {
	e := newTestEngine(t, 30000, Config{})
	res, err := e.Exec("CREATE INDEX ON W(d)")
	if err != nil {
		t.Fatal(err)
	}
	if res.RowCount != 30000 || res.Duration <= 0 {
		t.Fatalf("index build result %+v", res)
	}
	// W.d = i*37 %% 3000 has ≈3000 distinct values: an equality matches ≈10
	// of 30000 rows, well under the page count, so the index wins.
	q, err := e.Exec("EXPLAIN SELECT * FROM W WHERE W.d = 777")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(planString(q), "IndexScan") {
		t.Fatalf("index unused:\n%s", planString(q))
	}
	if _, err := e.Exec("CREATE INDEX ON W(d)"); err == nil {
		t.Fatal("duplicate index should fail")
	}
	if err := e.DropIndex("W", "d"); err != nil {
		t.Fatal(err)
	}
	if err := e.DropIndex("W", "d"); err == nil {
		t.Fatal("double index drop should fail")
	}
}

func TestCreateHistogramImprovesEstimates(t *testing.T) {
	e := newTestEngine(t, 2000, Config{})
	// Without a histogram the uniform assumption misestimates the skewed
	// d column; with one, estimates change.
	before, err := e.PlanGraph(qgraph.SelectionSubgraph(qgraph.Selection{
		Rel: "W", Col: "d", Op: tuple.CmpLT, Const: tuple.NewInt(100),
	}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Exec("CREATE HISTOGRAM ON W(d)")
	if err != nil {
		t.Fatal(err)
	}
	if res.RowCount != 2000 {
		t.Fatalf("histogram scanned %d rows", res.RowCount)
	}
	wt, _ := e.Catalog.Table("W")
	if wt.ColumnStats("d").Hist() == nil {
		t.Fatal("histogram not attached")
	}
	after, err := e.PlanGraph(qgraph.SelectionSubgraph(qgraph.Selection{
		Rel: "W", Col: "d", Op: tuple.CmpLT, Const: tuple.NewInt(100),
	}))
	if err != nil {
		t.Fatal(err)
	}
	// Both must be valid plans; the row estimates should differ (histogram
	// vs interpolation can coincide only by accident on this data).
	if before.Rows() == after.Rows() {
		t.Logf("estimates identical (%v); acceptable but unexpected", before.Rows())
	}
	if err := e.DropHistogram("W", "d"); err != nil {
		t.Fatal(err)
	}
	if wt.ColumnStats("d").Hist() != nil {
		t.Fatal("histogram not dropped")
	}
}

func TestStageWarmsPool(t *testing.T) {
	e := newTestEngine(t, 2000, Config{BufferPoolPages: 512})
	if err := e.ColdStart(); err != nil {
		t.Fatal(err)
	}
	res, err := e.Stage("R")
	if err != nil {
		t.Fatal(err)
	}
	if res.RowCount == 0 || res.Work.PageReads == 0 {
		t.Fatalf("staging did nothing: %+v", res)
	}
	staged := e.Pool.StagedCount()
	if staged == 0 {
		t.Fatal("no pages staged")
	}
	// A query over R now reads fewer pages from disk.
	q1, err := e.Exec("SELECT * FROM R WHERE R.c < 3")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Unstage("R"); err != nil {
		t.Fatal(err)
	}
	if e.Pool.StagedCount() != 0 {
		t.Fatal("unstage incomplete")
	}
	if err := e.ColdStart(); err != nil {
		t.Fatal(err)
	}
	q2, err := e.Exec("SELECT * FROM R WHERE R.c < 3")
	if err != nil {
		t.Fatal(err)
	}
	if q1.Work.PageReads >= q2.Work.PageReads {
		t.Fatalf("staged query read %d pages, cold read %d", q1.Work.PageReads, q2.Work.PageReads)
	}
}

func TestDropTableUnknown(t *testing.T) {
	e := newTestEngine(t, 10, Config{})
	if err := e.DropTable("ghost"); err == nil {
		t.Fatal("dropping unknown table should fail")
	}
}

func TestFreshNameUnique(t *testing.T) {
	e := newTestEngine(t, 10, Config{})
	a, b := e.FreshName("spec"), e.FreshName("spec")
	if a == b {
		t.Fatalf("FreshName repeated %q", a)
	}
}

func TestColdStartClearsPool(t *testing.T) {
	e := newTestEngine(t, 500, Config{})
	if _, err := e.Exec("SELECT * FROM R"); err != nil {
		t.Fatal(err)
	}
	warm, err := e.Exec("SELECT * FROM R")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ColdStart(); err != nil {
		t.Fatal(err)
	}
	cold, err := e.Exec("SELECT * FROM R")
	if err != nil {
		t.Fatal(err)
	}
	if cold.Work.PageReads <= warm.Work.PageReads {
		t.Fatalf("cold reads %d not above warm reads %d", cold.Work.PageReads, warm.Work.PageReads)
	}
}

func TestTotalDataPages(t *testing.T) {
	e := newTestEngine(t, 500, Config{})
	if e.TotalDataPages() == 0 {
		t.Fatal("no data pages counted")
	}
}

// TestTotalDataPagesBesideDrops counts pages while another goroutine creates
// and drops tables: a table that vanishes between the name listing and the
// lookup must be skipped, not dereferenced (run under -race in CI).
func TestTotalDataPagesBesideDrops(t *testing.T) {
	e := newTestEngine(t, 500, Config{})
	base := e.TotalDataPages()
	schema := tuple.NewSchema(tuple.Column{Name: "k", Kind: tuple.KindInt})
	dropped := make(chan error, 1)
	go func() {
		for i := 0; i < 3000; i++ {
			name := fmt.Sprintf("tmp_%d", i%8)
			if _, err := e.CreateTable(name, schema); err != nil {
				dropped <- err
				return
			}
			if err := e.DropTable(name); err != nil {
				dropped <- err
				return
			}
		}
		dropped <- nil
	}()
	for {
		select {
		case err := <-dropped:
			if err != nil {
				t.Fatal(err)
			}
			return
		default:
		}
		// The temporary tables are empty, so the total never moves.
		if got := e.TotalDataPages(); got != base {
			t.Fatalf("TotalDataPages = %d beside empty-table churn, want %d", got, base)
		}
	}
}

// planString renders a result's plan.
func planString(r *Result) string {
	if r.Plan == nil {
		return "<no plan>"
	}
	return plan.Explain(r.Plan)
}

func TestStageBudgetIsGlobal(t *testing.T) {
	// Staging several tables must never pin more than half the pool —
	// otherwise query execution starves for frames (regression test for the
	// A1 ablation failure).
	e := newTestEngine(t, 30000, Config{BufferPoolPages: 16})
	for _, table := range []string{"R", "S", "W"} {
		if _, err := e.Stage(table); err != nil {
			t.Fatal(err)
		}
	}
	if staged := e.Pool.StagedCount(); staged > 8 {
		t.Fatalf("%d pages staged with a 16-frame pool", staged)
	}
	// Queries must still run.
	if _, err := e.Exec("SELECT * FROM R, S WHERE R.a = S.a"); err != nil {
		t.Fatalf("query starved after staging: %v", err)
	}
}

// TestPlanGraphBesideViewDrops: the speculator's cost model plans without the
// statement lock while other sessions drop their materializations. A view the
// planner already matched must stay plannable — it carries its backing table —
// instead of failing a second catalog lookup with "catalog: no table".
func TestPlanGraphBesideViewDrops(t *testing.T) {
	e := newTestEngine(t, 200, Config{})
	g := qgraph.SelectionSubgraph(qgraph.Selection{
		Rel: "R", Col: "c", Op: tuple.CmpGT, Const: tuple.NewInt(10),
	})
	const rounds = 300
	dropped := make(chan error, 1)
	go func() {
		defer close(dropped)
		for i := 0; i < rounds; i++ {
			name := fmt.Sprintf("spec_%d", i)
			if _, err := e.Materialize(name, g, true); err != nil {
				dropped <- err
				return
			}
			if err := e.DropTable(name); err != nil {
				dropped <- err
				return
			}
		}
	}()
	for planning := true; planning; {
		select {
		case err := <-dropped:
			if err != nil {
				t.Fatal(err)
			}
			planning = false
		default:
			if _, err := e.PlanGraph(g); err != nil {
				t.Fatalf("planning beside a view drop: %v", err)
			}
		}
	}
}
