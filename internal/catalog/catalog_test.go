package catalog

import (
	"strings"
	"sync"
	"testing"

	"specdb/internal/btree"
	"specdb/internal/buffer"
	"specdb/internal/qgraph"
	"specdb/internal/sim"
	"specdb/internal/stats"
	"specdb/internal/storage"
	"specdb/internal/tuple"
)

func newTestCatalog() (*Catalog, *storage.DiskManager, *buffer.Pool) {
	disk := storage.NewDiskManager(512)
	pool := buffer.NewPool(disk, 64, sim.NewMeter())
	return New(pool), disk, pool
}

func simpleSchema() *tuple.Schema {
	return tuple.NewSchema(
		tuple.Column{Name: "id", Kind: tuple.KindInt},
		tuple.Column{Name: "name", Kind: tuple.KindString},
	)
}

func TestCreateAndLookupTable(t *testing.T) {
	c, _, _ := newTestCatalog()
	tb, err := c.CreateTable("emp", simpleSchema())
	if err != nil {
		t.Fatal(err)
	}
	if tb.RowCount() != 0 || tb.NumPages() != 0 {
		t.Fatal("fresh table not empty")
	}
	got, err := c.Table("emp")
	if err != nil || got != tb {
		t.Fatal("lookup failed")
	}
	if !c.HasTable("emp") || c.HasTable("ghost") {
		t.Fatal("HasTable wrong")
	}
	if _, err := c.Table("ghost"); err == nil {
		t.Fatal("lookup of missing table should fail")
	}
	if _, err := c.CreateTable("emp", simpleSchema()); err == nil {
		t.Fatal("duplicate create should fail")
	}
	names := c.TableNames()
	if len(names) != 1 || names[0] != "emp" {
		t.Fatalf("TableNames = %v", names)
	}
}

func TestDropTableFreesEverything(t *testing.T) {
	c, disk, pool := newTestCatalog()
	tb, err := c.CreateTable("emp", simpleSchema())
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 100; i++ {
		rec, err := tuple.EncodeRow(nil, tb.Schema, tuple.Row{tuple.NewInt(i), tuple.NewString("x")})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tb.Heap.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}
	tree, err := btree.New(pool, 512)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 100; i++ {
		if err := tree.Insert(tuple.EncodeKey(nil, tuple.NewInt(i)), storage.RID{}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.AddIndex("emp", "id", tree); err != nil {
		t.Fatal(err)
	}
	if disk.Allocated() == 0 {
		t.Fatal("nothing allocated")
	}
	if err := c.DropTable("emp"); err != nil {
		t.Fatal(err)
	}
	if disk.Allocated() != 0 {
		t.Fatalf("%d pages leaked after DropTable", disk.Allocated())
	}
	if err := c.DropTable("emp"); err == nil {
		t.Fatal("double drop should fail")
	}
}

func TestAddIndexValidation(t *testing.T) {
	c, _, pool := newTestCatalog()
	if _, err := c.CreateTable("emp", simpleSchema()); err != nil {
		t.Fatal(err)
	}
	tree, err := btree.New(pool, 512)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddIndex("ghost", "id", tree); err == nil {
		t.Fatal("index on missing table should fail")
	}
	if _, err := c.AddIndex("emp", "ghost", tree); err == nil {
		t.Fatal("index on missing column should fail")
	}
	idx, err := c.AddIndex("emp", "id", tree)
	if err != nil {
		t.Fatal(err)
	}
	if idx.Name != "idx_emp_id" {
		t.Fatalf("index name %q", idx.Name)
	}
	tb, _ := c.Table("emp")
	if tb.Index("id") != idx || tb.Index("name") != nil {
		t.Fatal("Index lookup wrong")
	}
	if _, err := c.AddIndex("emp", "id", tree); err == nil {
		t.Fatal("duplicate index should fail")
	}
}

func TestViewRegistryAndMatching(t *testing.T) {
	c, _, _ := newTestCatalog()
	if _, err := c.CreateTable("v1", simpleSchema()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateTable("v2", simpleSchema()); err != nil {
		t.Fatal(err)
	}

	selR := qgraph.Selection{Rel: "R", Col: "c", Op: tuple.CmpGT, Const: tuple.NewInt(10)}
	g1 := qgraph.SelectionSubgraph(selR) // σ(R)
	g2 := qgraph.New()                   // R ⋈ S
	g2.AddJoin(qgraph.NewJoin("R", "a", "S", "a"))

	if err := c.RegisterView("v1", g1, false); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterView("v2", g2, true); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterView("ghost", g1, false); err == nil {
		t.Fatal("view without backing table should fail")
	}

	// Query σ(R) ⋈ S contains both views.
	q := g2.Clone()
	q.AddSelection(selR)
	matches := c.MatchingViews(q)
	if len(matches) != 2 {
		t.Fatalf("MatchingViews = %d, want 2", len(matches))
	}
	// Query over only S matches neither.
	qs := qgraph.New()
	qs.AddRelation("S")
	if got := c.MatchingViews(qs); len(got) != 0 {
		t.Fatalf("MatchingViews(S) = %d, want 0", len(got))
	}

	if v := c.ViewByGraph(g2); v == nil || v.Name != "v2" || !v.Forced {
		t.Fatalf("ViewByGraph = %+v", v)
	}
	if v := c.ViewByGraph(qs); v != nil {
		t.Fatal("ViewByGraph on unknown graph should be nil")
	}
	// Graph keys join their parts with ';', which a string constant may hold:
	// one selection can spell two. ViewByGraph compares parts, not keys.
	eq := func(s string) qgraph.Selection {
		return qgraph.Selection{Rel: "R", Col: "c", Op: tuple.CmpEQ, Const: tuple.NewString(s)}
	}
	two := qgraph.SelectionSubgraph(eq("x"))
	two.AddSelection(eq("y"))
	one := qgraph.SelectionSubgraph(eq("x';" + strings.TrimSuffix(eq("y").Key(), "'")))
	if one.Key() != two.Key() {
		t.Fatalf("no key collision to test: %q, %q", one.Key(), two.Key())
	}
	if _, err := c.CreateTable("v3", simpleSchema()); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterView("v3", two, false); err != nil {
		t.Fatal(err)
	}
	if v := c.ViewByGraph(one); v != nil {
		t.Fatalf("ViewByGraph matched %s by its key alone", v.Name)
	}
	if v := c.ViewByGraph(two.Clone()); v == nil || v.Name != "v3" {
		t.Fatalf("ViewByGraph(two) = %+v", v)
	}
	c.DropView("v3")

	// Dropping the backing table unregisters the view.
	if err := c.DropTable("v1"); err != nil {
		t.Fatal(err)
	}
	if c.View("v1") != nil {
		t.Fatal("view survived table drop")
	}
	c.DropView("v2")
	if len(c.Views()) != 0 {
		t.Fatal("DropView left views behind")
	}
}

func TestAnalyzeAndColumnValues(t *testing.T) {
	c, _, _ := newTestCatalog()
	tb, err := c.CreateTable("emp", simpleSchema())
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 40; i++ {
		rec, err := tuple.EncodeRow(nil, tb.Schema, tuple.Row{
			tuple.NewInt(i % 10), tuple.NewString("n"),
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tb.Heap.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := Analyze(tb); err != nil {
		t.Fatal(err)
	}
	cs := tb.ColumnStats("id")
	if cs == nil || cs.Count != 40 || cs.Distinct != 10 {
		t.Fatalf("stats %+v", cs)
	}
	if cs.Min.Int() != 0 || cs.Max.Int() != 9 {
		t.Fatalf("range [%v,%v]", cs.Min, cs.Max)
	}
	vals, err := ColumnValues(tb, "id")
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 40 || vals[0].Int() != 0 {
		t.Fatalf("values %d", len(vals))
	}
	// Analyze preserves an existing histogram.
	h := &stats.Histogram{Total: 1}
	tb.ColumnStats("id").SetHist(h)
	if err := Analyze(tb); err != nil {
		t.Fatal(err)
	}
	if tb.ColumnStats("id").Hist() != h {
		t.Fatal("Analyze dropped the histogram")
	}
}

func TestColumnStatsLookupEdgeCases(t *testing.T) {
	c, _, _ := newTestCatalog()
	tb, err := c.CreateTable("emp", simpleSchema())
	if err != nil {
		t.Fatal(err)
	}
	if tb.ColumnStats("ghost") != nil {
		t.Fatal("missing column should have nil stats")
	}
	if tb.ColumnStats("id") != nil {
		t.Fatal("unanalyzed column should have nil stats")
	}
	if tb.Index("id") != nil {
		t.Fatal("unindexed column should yield nil")
	}
	// The nil-stats path must extend through histogram access.
	if tb.ColumnStats("ghost").Hist() != nil {
		t.Fatal("nil ColumnStats should yield nil histogram")
	}
}

// TestQualifiedSchemaIsBuiltOnce: statements planning at once under the
// shared statement lock all read a table's Qualified schema, so its first
// build may race with itself; every reader must get the one schema, named
// "table.col" in the stored order.
func TestQualifiedSchemaIsBuiltOnce(t *testing.T) {
	c, _, _ := newTestCatalog()
	tb, err := c.CreateTable("emp", simpleSchema())
	if err != nil {
		t.Fatal(err)
	}
	got := make([]*tuple.Schema, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = tb.Qualified()
		}(i)
	}
	wg.Wait()
	for _, s := range got {
		if s != got[0] {
			t.Fatal("Qualified built more than one schema")
		}
	}
	if s := got[0].String(); s != "(emp.id int, emp.name string)" {
		t.Fatalf("Qualified() = %s", s)
	}
	if tb.Schema.Columns[0].Name != "id" {
		t.Fatal("Qualified renamed the stored schema")
	}
}
