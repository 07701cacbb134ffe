package tpch

import (
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"specdb/internal/engine"
	"specdb/internal/golden"
	"specdb/internal/qgraph"
	"specdb/internal/tuple"
)

func loadSmall(t *testing.T) *engine.Engine {
	t.Helper()
	e := engine.New(engine.Config{BufferPoolPages: 256})
	if err := Load(e, Scale100MB, 42); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestScaleProportions(t *testing.T) {
	s := Scale1GB
	if s.LineItem <= s.Orders || s.Orders <= s.Customer {
		t.Fatalf("TPC-H proportions broken: %+v", s)
	}
	if Scale1GB.LineItem <= Scale500MB.LineItem || Scale500MB.LineItem <= Scale100MB.LineItem {
		t.Fatal("scales not increasing")
	}
	if _, err := ScaleByName("100MB"); err != nil {
		t.Fatal(err)
	}
	if _, err := ScaleByName("2TB"); err == nil {
		t.Fatal("unknown scale should fail")
	}
	if Scale100MB.TotalRows() == 0 {
		t.Fatal("zero rows")
	}
}

func TestLoadPopulatesAllTables(t *testing.T) {
	e := loadSmall(t)
	for name, wantRows := range map[string]int{
		"supplier": Scale100MB.Supplier,
		"part":     Scale100MB.Part,
		"partsupp": Scale100MB.PartSupp,
		"customer": Scale100MB.Customer,
		"orders":   Scale100MB.Orders,
		"lineitem": Scale100MB.LineItem,
	} {
		tb, err := e.Catalog.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		if int(tb.RowCount()) != wantRows {
			t.Fatalf("%s has %d rows, want %d", name, tb.RowCount(), wantRows)
		}
		// Analyzed.
		first := tb.Schema.Columns[0].Name
		if tb.ColumnStats(first) == nil {
			t.Fatalf("%s not analyzed", name)
		}
	}
}

func TestLoadPreparesIndexesAndHistograms(t *testing.T) {
	e := loadSmall(t)
	li, _ := e.Catalog.Table("lineitem")
	for _, col := range []string{"l_orderkey", "l_partkey", "l_suppkey", "l_quantity", "l_shipdate"} {
		if li.Index(col) == nil {
			t.Fatalf("missing index on lineitem.%s", col)
		}
	}
	if li.ColumnStats("l_quantity").Hist() == nil {
		t.Fatal("missing histogram on lineitem.l_quantity")
	}
	ord, _ := e.Catalog.Table("orders")
	if ord.ColumnStats("o_totalprice").Hist() == nil {
		t.Fatal("missing histogram on orders.o_totalprice")
	}
}

func TestForeignKeysResolve(t *testing.T) {
	e := loadSmall(t)
	// Every lineitem.l_orderkey must exist in orders (FK integrity), checked
	// through the engine itself with an anti-join style count.
	res, err := e.Exec("SELECT * FROM orders, lineitem WHERE orders.o_orderkey = lineitem.l_orderkey")
	if err != nil {
		t.Fatal(err)
	}
	li, _ := e.Catalog.Table("lineitem")
	if res.RowCount != li.RowCount() {
		t.Fatalf("FK join produced %d rows, want %d (every lineitem matches exactly one order)",
			res.RowCount, li.RowCount())
	}
}

func TestSkewIsPresent(t *testing.T) {
	e := loadSmall(t)
	// l_quantity is Zipf: quantity 1 must be far more common than 1/50.
	res, err := e.Exec("SELECT * FROM lineitem WHERE lineitem.l_quantity = 1")
	if err != nil {
		t.Fatal(err)
	}
	li, _ := e.Catalog.Table("lineitem")
	frac := float64(res.RowCount) / float64(li.RowCount())
	if frac < 0.10 {
		t.Fatalf("quantity=1 fraction %.3f; expected heavy skew (>0.10)", frac)
	}
}

func TestJoinEdgesAreValid(t *testing.T) {
	e := loadSmall(t)
	for _, j := range JoinEdges() {
		g := qgraph.New()
		g.AddJoin(j)
		if _, err := e.PlanGraph(g); err != nil {
			t.Fatalf("join edge %v does not plan: %v", j, err)
		}
	}
}

func TestSelectionColumnsAreValid(t *testing.T) {
	e := loadSmall(t)
	for _, sc := range SelectionColumns() {
		var c tuple.Value
		switch sc.Kind {
		case tuple.KindInt:
			c = tuple.NewInt(int64(sc.Min))
		case tuple.KindFloat:
			c = tuple.NewFloat(sc.Min)
		case tuple.KindDate:
			c = tuple.NewDate(int64(sc.Min))
		}
		g := qgraph.SelectionSubgraph(qgraph.Selection{
			Rel: sc.Table, Col: sc.Column, Op: tuple.CmpGE, Const: c,
		})
		if _, err := e.PlanGraph(g); err != nil {
			t.Fatalf("selection column %s.%s does not plan: %v", sc.Table, sc.Column, err)
		}
	}
}

func TestDeterminism(t *testing.T) {
	e1 := engine.New(engine.Config{BufferPoolPages: 256})
	e2 := engine.New(engine.Config{BufferPoolPages: 256})
	tiny := NewScale("tiny", 0.001)
	if err := Load(e1, tiny, 7); err != nil {
		t.Fatal(err)
	}
	if err := Load(e2, tiny, 7); err != nil {
		t.Fatal(err)
	}
	q := "SELECT * FROM lineitem WHERE lineitem.l_quantity < 5"
	r1, err := e1.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e2.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	if r1.RowCount != r2.RowCount {
		t.Fatalf("same seed, different data: %d vs %d", r1.RowCount, r2.RowCount)
	}
	// Different seed should (overwhelmingly) differ.
	e3 := engine.New(engine.Config{BufferPoolPages: 256})
	if err := Load(e3, tiny, 8); err != nil {
		t.Fatal(err)
	}
	r3, err := e3.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	if r1.RowCount == r3.RowCount {
		t.Logf("seeds 7 and 8 coincide on this query (possible but unlikely)")
	}
}

// TestIndexBuildsKeepTheirShape pins what CreateIndex builds over every
// column Load indexes: entry count, height, page count and a digest of the
// tree's page images in allocation order (leaves first, then each level up),
// against a file recorded before the bulk loader kept a running node size and
// the build stopped allocating a key per row. Byte-identical images mean every
// split landed on the same entry — the same first key in every leaf — so every
// simulated I/O count over an index stays what it was.
func TestIndexBuildsKeepTheirShape(t *testing.T) {
	e := loadSmall(t)
	var got strings.Builder
	for _, name := range e.Catalog.TableNames() {
		tb, err := e.Catalog.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, idx := range tb.IndexList() {
			if err := idx.Tree.CheckInvariants(); err != nil {
				t.Fatalf("%s.%s: %v", name, idx.Column, err)
			}
			images := fnv.New64a()
			for _, id := range idx.Tree.PageIDs() {
				buf, err := e.Pool.Get(id)
				if err != nil {
					t.Fatal(err)
				}
				images.Write(buf)
				e.Pool.Unpin(id, false)
			}
			fmt.Fprintf(&got, "%s.%s entries=%d height=%d pages=%d images=%016x\n",
				name, idx.Column, idx.Tree.Len(), idx.Tree.Height(), idx.Tree.NumPages(), images.Sum64())
		}
	}
	if !golden.Check(t, "testdata/index_shapes.golden", got.String()) {
		t.Fatal("index shapes changed: re-record with -update only if a change to the index format is intended")
	}
}

// TestHistogramsKeepTheirBuckets pins every histogram Load builds: per bucket
// its bounds as IEEE bit patterns, so a signed zero or a NaN payload would
// show, its row count and its distinct count. A histogram steers the planner's
// estimates, so one bucket bound moved by a change to how the values are
// sorted would move plan choices and every simulated output downstream.
func TestHistogramsKeepTheirBuckets(t *testing.T) {
	e := loadSmall(t)
	var got strings.Builder
	for _, name := range e.Catalog.TableNames() {
		tb, err := e.Catalog.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, col := range tb.Schema.Columns {
			h := tb.ColumnStats(col.Name).Hist()
			if h == nil {
				continue
			}
			fmt.Fprintf(&got, "%s.%s total=%d buckets=%d\n", name, col.Name, h.Total, len(h.Buckets))
			for _, b := range h.Buckets {
				fmt.Fprintf(&got, "  lo=%016x hi=%016x count=%d distinct=%d\n",
					math.Float64bits(b.Lo), math.Float64bits(b.Hi), b.Count, b.Distinct)
			}
		}
	}
	if !golden.Check(t, "testdata/histograms.golden", got.String()) {
		t.Fatal("histogram buckets changed: re-record with -update only if a change to histogram construction is intended")
	}
}
