package plan

import (
	"fmt"
	"strings"
	"testing"

	"specdb/internal/btree"
	"specdb/internal/buffer"
	"specdb/internal/catalog"
	"specdb/internal/exec"
	"specdb/internal/qgraph"
	"specdb/internal/sim"
	"specdb/internal/sql"
	"specdb/internal/storage"
	"specdb/internal/tuple"
)

type env struct {
	disk  *storage.DiskManager
	pool  *buffer.Pool
	cat   *catalog.Catalog
	meter *sim.Meter
	opt   Options
}

func newEnv(t *testing.T) *env {
	t.Helper()
	disk := storage.NewDiskManager(2048)
	meter := sim.NewMeter()
	pool := buffer.NewPool(disk, 512, meter)
	return &env{
		disk:  disk,
		pool:  pool,
		cat:   catalog.New(pool),
		meter: meter,
		opt:   Options{Rates: sim.DefaultRates()},
	}
}

// addTable creates, loads, and analyzes a table.
func (e *env) addTable(t *testing.T, name string, schema *tuple.Schema, rows []tuple.Row) *catalog.Table {
	t.Helper()
	tb, err := e.cat.CreateTable(name, schema)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		rec, err := tuple.EncodeRow(nil, schema, r)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tb.Heap.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := catalog.Analyze(tb); err != nil {
		t.Fatal(err)
	}
	return tb
}

func (e *env) indexOn(t *testing.T, tb *catalog.Table, col string) {
	t.Helper()
	tree, err := btree.New(e.pool, e.disk.PageSize())
	if err != nil {
		t.Fatal(err)
	}
	ord := tb.Schema.MustOrdinal(col)
	err = tb.Heap.Scan(func(rid storage.RID, rec []byte) error {
		row, _, err := tuple.DecodeRow(rec, tb.Schema)
		if err != nil {
			return err
		}
		return tree.Insert(tuple.EncodeKey(nil, row[ord]), rid)
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.cat.AddIndex(tb.Name, col, tree); err != nil {
		t.Fatal(err)
	}
}

// loadRSW builds the paper's Figure 2 relations:
// R(a,c), S(a,b), W(b,d) with deterministic contents.
func (e *env) loadRSW(t *testing.T, n int) {
	t.Helper()
	rSchema := tuple.NewSchema(
		tuple.Column{Name: "a", Kind: tuple.KindInt},
		tuple.Column{Name: "c", Kind: tuple.KindInt},
	)
	sSchema := tuple.NewSchema(
		tuple.Column{Name: "a", Kind: tuple.KindInt},
		tuple.Column{Name: "b", Kind: tuple.KindInt},
	)
	wSchema := tuple.NewSchema(
		tuple.Column{Name: "b", Kind: tuple.KindInt},
		tuple.Column{Name: "d", Kind: tuple.KindInt},
	)
	var rRows, sRows, wRows []tuple.Row
	for i := 0; i < n; i++ {
		rRows = append(rRows, tuple.Row{tuple.NewInt(int64(i % 50)), tuple.NewInt(int64(i % 23))})
		sRows = append(sRows, tuple.Row{tuple.NewInt(int64(i % 50)), tuple.NewInt(int64(i % 31))})
		wRows = append(wRows, tuple.Row{tuple.NewInt(int64(i % 31)), tuple.NewInt(int64(i * 37 % 3000))})
	}
	e.addTable(t, "R", rSchema, rRows)
	e.addTable(t, "S", sSchema, sRows)
	e.addTable(t, "W", wSchema, wRows)
}

// run optimizes and executes a SQL query, returning the result rows.
func (e *env) run(t *testing.T, src string) ([]tuple.Row, Node) {
	t.Helper()
	stmt, err := sql.ParseSelect(src)
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
	it, err := node.Build(exec.NewContext(e.meter))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := exec.Collect(it)
	if err != nil {
		t.Fatal(err)
	}
	return rows, node
}

func TestBindStarExpansion(t *testing.T) {
	e := newEnv(t)
	e.loadRSW(t, 10)
	stmt, _ := sql.ParseSelect("SELECT * FROM S, R")
	q, err := Bind(e.cat, stmt)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"R.a", "R.c", "S.a", "S.b"} // canonical: sorted relations
	if fmt.Sprint(q.Projections) != fmt.Sprint(want) {
		t.Fatalf("projections %v, want %v", q.Projections, want)
	}
	if q.Graph.NumRelations() != 2 {
		t.Fatalf("graph %v", q.Graph)
	}
}

func TestBindResolution(t *testing.T) {
	e := newEnv(t)
	e.loadRSW(t, 10)
	// Unqualified unique column resolves.
	stmt, _ := sql.ParseSelect("SELECT c FROM R WHERE c > 5")
	q, err := Bind(e.cat, stmt)
	if err != nil {
		t.Fatal(err)
	}
	if q.Projections[0] != "R.c" {
		t.Fatalf("resolved projection %v", q.Projections)
	}
	sels := q.Graph.Selections()
	if len(sels) != 1 || sels[0].Rel != "R" {
		t.Fatalf("selection %v", sels)
	}
}

func TestBindErrors(t *testing.T) {
	e := newEnv(t)
	e.loadRSW(t, 10)
	bad := []string{
		"SELECT * FROM ghost",
		"SELECT ghostcol FROM R",
		"SELECT a FROM R, S",                   // ambiguous
		"SELECT * FROM R, S WHERE a = 1",       // ambiguous in predicate
		"SELECT * FROM R WHERE R.c > 'string'", // type mismatch
		"SELECT * FROM R, R",                   // duplicate relation
		"SELECT * FROM R, S WHERE R.ghost = S.a",
		"SELECT * FROM R WHERE S.a = 1", // relation not in FROM
	}
	for _, src := range bad {
		stmt, err := sql.ParseSelect(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if _, err := Bind(e.cat, stmt); err == nil {
			t.Errorf("Bind(%q) succeeded, want error", src)
		}
	}
}

func TestBindGraph(t *testing.T) {
	e := newEnv(t)
	e.loadRSW(t, 10)
	g := qgraph.New()
	g.AddJoin(qgraph.NewJoin("R", "a", "S", "a"))
	g.AddSelection(qgraph.Selection{Rel: "R", Col: "c", Op: tuple.CmpGT, Const: tuple.NewInt(10)})
	q, err := BindGraph(e.cat, g)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Projections) != 4 {
		t.Fatalf("projections %v", q.Projections)
	}
	// Bad graph: unknown column.
	g2 := qgraph.New()
	g2.AddSelection(qgraph.Selection{Rel: "R", Col: "ghost", Op: tuple.CmpGT, Const: tuple.NewInt(1)})
	if _, err := BindGraph(e.cat, g2); err == nil {
		t.Fatal("BindGraph with unknown column should fail")
	}
	if _, err := BindGraph(e.cat, qgraph.New()); err == nil {
		t.Fatal("BindGraph with empty graph should fail")
	}
}

func TestSingleTablePlan(t *testing.T) {
	e := newEnv(t)
	e.loadRSW(t, 200)
	rows, node := e.run(t, "SELECT * FROM R WHERE R.c < 5")
	// c = i % 23 < 5 → i%23 ∈ {0..4}: count = number of i in [0,200) with i%23<5.
	want := 0
	for i := 0; i < 200; i++ {
		if i%23 < 5 {
			want++
		}
	}
	if len(rows) != want {
		t.Fatalf("plan returned %d rows, want %d", len(rows), want)
	}
	if node.Schema().Len() != 2 {
		t.Fatalf("schema %v", node.Schema())
	}
}

func TestIndexChosenForSelectiveQuery(t *testing.T) {
	e := newEnv(t)
	e.loadRSW(t, 2000)
	// W.d = i*37 %% 3000 is nearly unique: an equality predicate matches ≈1
	// row, which is when an unclustered index beats a sequential scan.
	e.indexOn(t, e.table(t, "W"), "d")
	_, node := e.run(t, "SELECT * FROM W WHERE W.d = 1110")
	text := Explain(node)
	if !strings.Contains(text, "IndexScan") {
		t.Fatalf("selective equality should use the index:\n%s", text)
	}
	// Unselective predicate keeps the seq scan.
	_, node = e.run(t, "SELECT * FROM W WHERE W.d >= 0")
	if !strings.Contains(Explain(node), "SeqScan") {
		t.Fatalf("unselective predicate should seq scan:\n%s", Explain(node))
	}
}

func TestFigure2QueryExecutes(t *testing.T) {
	e := newEnv(t)
	e.loadRSW(t, 300)
	rows, node := e.run(t, `
		SELECT * FROM R, S, W
		WHERE R.a = S.a AND S.b = W.b AND R.c > 10 AND W.d < 2000`)
	want := referenceRSW(300, func(rc, wd int64) bool { return rc > 10 && wd < 2000 })
	if len(rows) != want {
		t.Fatalf("join plan returned %d rows, want %d\n%s", len(rows), want, Explain(node))
	}
}

// referenceRSW evaluates the Figure 2 query naively against the generated
// contents of loadRSW(n).
func referenceRSW(n int, keep func(rc, wd int64) bool) int {
	count := 0
	for i := 0; i < n; i++ { // R row
		ra, rc := int64(i%50), int64(i%23)
		for j := 0; j < n; j++ { // S row
			sa, sb := int64(j%50), int64(j%31)
			if ra != sa {
				continue
			}
			for k := 0; k < n; k++ { // W row
				wb, wd := int64(k%31), int64(k*37%3000)
				if sb == wb && keep(rc, wd) {
					count++
				}
			}
		}
	}
	return count
}

func TestProjectionOrder(t *testing.T) {
	e := newEnv(t)
	e.loadRSW(t, 50)
	rows, node := e.run(t, "SELECT W.d, S.b FROM S, W WHERE S.b = W.b")
	if node.Schema().Columns[0].Name != "W.d" || node.Schema().Columns[1].Name != "S.b" {
		t.Fatalf("projection order wrong: %v", node.Schema())
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
}

func TestCrossProductFallback(t *testing.T) {
	e := newEnv(t)
	e.loadRSW(t, 12)
	rows, node := e.run(t, "SELECT * FROM R, W") // no join edge
	if len(rows) != 12*12 {
		t.Fatalf("cross product %d rows, want 144", len(rows))
	}
	if !strings.Contains(Explain(node), "CrossJoin") {
		t.Fatalf("expected CrossJoin:\n%s", Explain(node))
	}
}

// materializeView manually materializes graph into a view table (what the
// engine will do), so the optimizer tests can exercise rewriting.
func (e *env) materializeView(t *testing.T, name string, g *qgraph.Graph, forced bool) *catalog.Table {
	t.Helper()
	q, err := BindGraph(e.cat, g)
	if err != nil {
		t.Fatal(err)
	}
	node, err := Optimize(e.cat, q, Options{Rates: e.opt.Rates})
	if err != nil {
		t.Fatal(err)
	}
	vt, err := e.cat.CreateTable(name, node.Schema())
	if err != nil {
		t.Fatal(err)
	}
	it, err := node.Build(exec.NewContext(e.meter))
	if err != nil {
		t.Fatal(err)
	}
	err = exec.Drain(it, func(r tuple.Row) error {
		rec, err := tuple.EncodeRow(nil, vt.Schema, r)
		if err != nil {
			return err
		}
		_, err = vt.Heap.Insert(rec)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := catalog.Analyze(vt); err != nil {
		t.Fatal(err)
	}
	if err := e.cat.RegisterView(name, g, forced); err != nil {
		t.Fatal(err)
	}
	return vt
}

func TestViewRewriteOptional(t *testing.T) {
	e := newEnv(t)
	e.loadRSW(t, 5000)
	// Materialize the selective σ(W.d < 300): scanning it is far cheaper
	// than scanning W, so a cost-based optimizer must pick it when allowed.
	g := qgraph.SelectionSubgraph(qgraph.Selection{
		Rel: "W", Col: "d", Op: tuple.CmpLT, Const: tuple.NewInt(300),
	})
	e.materializeView(t, "mv_w_sel", g, false)

	e.opt.UseViews = true
	rows, node := e.run(t, "SELECT * FROM W WHERE W.d < 300")
	want := 0
	for k := 0; k < 5000; k++ {
		if int64(k*37%3000) < 300 {
			want++
		}
	}
	if len(rows) != want {
		t.Fatalf("rewritten plan wrong: %d rows, want %d", len(rows), want)
	}
	if !strings.Contains(Explain(node), "mv_w_sel") {
		t.Fatalf("optimizer ignored a profitable view:\n%s", Explain(node))
	}

	// With UseViews off and not forced, the view must not appear.
	e.opt.UseViews = false
	_, node = e.run(t, "SELECT * FROM W WHERE W.d < 300")
	if strings.Contains(Explain(node), "mv_w_sel") {
		t.Fatalf("optional view used with UseViews=false:\n%s", Explain(node))
	}
}

func TestViewRewriteForced(t *testing.T) {
	e := newEnv(t)
	e.loadRSW(t, 100)
	g := qgraph.SelectionSubgraph(qgraph.Selection{Rel: "W", Col: "d", Op: tuple.CmpLT, Const: tuple.NewInt(2000)})
	e.materializeView(t, "mv_w", g, true)

	// Forced views apply even with UseViews=false.
	rows, node := e.run(t, "SELECT * FROM W WHERE W.d < 2000")
	if !strings.Contains(Explain(node), "mv_w") {
		t.Fatalf("forced view not used:\n%s", Explain(node))
	}
	want := 0
	for k := 0; k < 100; k++ {
		if int64(k*37%3000) < 2000 {
			want++
		}
	}
	if len(rows) != want {
		t.Fatalf("forced rewrite wrong: %d rows, want %d", len(rows), want)
	}

	// A query NOT containing the subgraph must not use the view.
	_, node = e.run(t, "SELECT * FROM W WHERE W.d < 1000")
	if strings.Contains(Explain(node), "mv_w") {
		t.Fatalf("view leaked into non-containing query:\n%s", Explain(node))
	}
}

func TestViewWithResidualPredicates(t *testing.T) {
	e := newEnv(t)
	e.loadRSW(t, 300)
	// View materializes R ⋈ S (no selections); the query adds R.c > 10,
	// which must be applied as a residual filter on the view.
	g := qgraph.New()
	g.AddJoin(qgraph.NewJoin("R", "a", "S", "a"))
	e.materializeView(t, "mv_rs_plain", g, true)

	rows, node := e.run(t, "SELECT * FROM R, S WHERE R.a = S.a AND R.c > 10")
	want := 0
	for i := 0; i < 300; i++ {
		for j := 0; j < 300; j++ {
			if i%50 == j%50 && i%23 > 10 {
				want++
			}
		}
	}
	if len(rows) != want {
		t.Fatalf("residual predicate on view: %d rows, want %d\n%s", len(rows), want, Explain(node))
	}
	if !strings.Contains(Explain(node), "mv_rs_plain") {
		t.Fatalf("forced view skipped:\n%s", Explain(node))
	}
}

func TestEstimatesAreFinite(t *testing.T) {
	e := newEnv(t)
	e.loadRSW(t, 100)
	_, node := e.run(t, "SELECT * FROM R, S, W WHERE R.a = S.a AND S.b = W.b")
	if node.Cost() <= 0 {
		t.Fatalf("non-positive plan cost %v", node.Cost())
	}
	if node.Rows() < 0 {
		t.Fatalf("negative row estimate %v", node.Rows())
	}
}

func TestExplainShape(t *testing.T) {
	e := newEnv(t)
	e.loadRSW(t, 50)
	_, node := e.run(t, "SELECT R.c FROM R, S WHERE R.a = S.a AND R.c > 3")
	text := Explain(node)
	for _, want := range []string{"Project", "Join", "rows=", "cost=", "R.c > 3"} {
		if !strings.Contains(text, want) {
			t.Fatalf("Explain missing %q:\n%s", want, text)
		}
	}
}

// TestPlanMatchesReferenceRandom cross-checks optimizer+executor output
// against naive evaluation over random two-table queries.
func TestPlanMatchesReferenceRandom(t *testing.T) {
	r := sim.NewRand(2024)
	for trial := 0; trial < 15; trial++ {
		e := newEnv(t)
		n := 60 + r.Intn(100)
		aSchema := tuple.NewSchema(
			tuple.Column{Name: "k", Kind: tuple.KindInt},
			tuple.Column{Name: "v", Kind: tuple.KindInt},
		)
		bSchema := tuple.NewSchema(
			tuple.Column{Name: "k", Kind: tuple.KindInt},
			tuple.Column{Name: "w", Kind: tuple.KindInt},
		)
		var aRows, bRows []tuple.Row
		for i := 0; i < n; i++ {
			aRows = append(aRows, tuple.Row{tuple.NewInt(r.Int63n(25)), tuple.NewInt(r.Int63n(100))})
			bRows = append(bRows, tuple.Row{tuple.NewInt(r.Int63n(25)), tuple.NewInt(r.Int63n(100))})
		}
		e.addTable(t, "A", aSchema, aRows)
		e.addTable(t, "B", bSchema, bRows)
		if trial%2 == 0 {
			e.indexOn(t, e.table(t, "A"), "k")
			e.indexOn(t, e.table(t, "B"), "k")
		}
		vCut, wCut := r.Int63n(100), r.Int63n(100)
		src := fmt.Sprintf(
			"SELECT * FROM A, B WHERE A.k = B.k AND A.v < %d AND B.w >= %d", vCut, wCut)
		rows, node := e.run(t, src)

		want := 0
		for _, ra := range aRows {
			for _, rb := range bRows {
				if ra[0].Int() == rb[0].Int() && ra[1].Int() < vCut && rb[1].Int() >= wCut {
					want++
				}
			}
		}
		if len(rows) != want {
			t.Fatalf("trial %d (%s): %d rows, want %d\n%s", trial, src, len(rows), want, Explain(node))
		}
	}
}

// table is a test convenience resolving a catalog table.
func (e *env) table(t *testing.T, name string) *catalog.Table {
	t.Helper()
	tb, err := e.cat.Table(name)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}
