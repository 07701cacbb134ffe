package exec

import (
	"fmt"
	"sort"
	"testing"

	"specdb/internal/btree"
	"specdb/internal/buffer"
	"specdb/internal/catalog"
	"specdb/internal/sim"
	"specdb/internal/storage"
	"specdb/internal/tuple"
)

type env struct {
	disk  *storage.DiskManager
	pool  *buffer.Pool
	cat   *catalog.Catalog
	meter *sim.Meter
	ctx   *Context
}

func newEnv(t *testing.T) *env {
	t.Helper()
	disk := storage.NewDiskManager(1024)
	meter := sim.NewMeter()
	pool := buffer.NewPool(disk, 256, meter)
	return &env{
		disk:  disk,
		pool:  pool,
		cat:   catalog.New(pool),
		meter: meter,
		ctx:   NewContext(meter),
	}
}

// loadEmployees creates the paper's employee(name, age, salary) relation with
// n rows: age cycles 20..59, salary = 1000*age.
func (e *env) loadEmployees(t *testing.T, n int) *catalog.Table {
	t.Helper()
	schema := tuple.NewSchema(
		tuple.Column{Name: "name", Kind: tuple.KindString},
		tuple.Column{Name: "age", Kind: tuple.KindInt},
		tuple.Column{Name: "salary", Kind: tuple.KindFloat},
	)
	tb, err := e.cat.CreateTable("employee", schema)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		age := int64(20 + i%40)
		row := tuple.Row{
			tuple.NewString(fmt.Sprintf("emp%04d", i)),
			tuple.NewInt(age),
			tuple.NewFloat(float64(age) * 1000),
		}
		rec, err := tuple.EncodeRow(nil, schema, row)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tb.Heap.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

// indexOn builds a B+-tree index over tb.col.
func (e *env) indexOn(t *testing.T, tb *catalog.Table, col string) *catalog.Index {
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
	idx, err := e.cat.AddIndex(tb.Name, col, tree)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

func TestSeqScan(t *testing.T) {
	e := newEnv(t)
	tb := e.loadEmployees(t, 100)
	scan := NewSeqScan(e.ctx, tb, "employee")
	if scan.Schema().Ordinal("employee.age") != 1 {
		t.Fatalf("qualified schema %v", scan.Schema())
	}
	n, err := Count(scan)
	if err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Fatalf("scanned %d rows", n)
	}
	if e.meter.Snapshot().Tuples < 100 {
		t.Fatal("scan did not charge tuples")
	}
}

func TestSeqScanUnqualified(t *testing.T) {
	e := newEnv(t)
	tb := e.loadEmployees(t, 5)
	scan := NewSeqScan(e.ctx, tb, "")
	if scan.Schema().Ordinal("age") != 1 {
		t.Fatalf("unqualified schema %v", scan.Schema())
	}
	rows, err := Collect(scan)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 || rows[0][0].Str() != "emp0000" {
		t.Fatalf("rows %v", rows)
	}
}

func TestFilter(t *testing.T) {
	e := newEnv(t)
	tb := e.loadEmployees(t, 200)
	scan := NewSeqScan(e.ctx, tb, "employee")
	p, err := CompilePred(scan.Schema(), "employee.age", tuple.CmpLT, tuple.NewInt(30))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Collect(NewFilter(e.ctx, scan, []Pred{p}))
	if err != nil {
		t.Fatal(err)
	}
	// Ages 20..29 of a 40-value cycle over 200 rows → 50 rows.
	if len(rows) != 50 {
		t.Fatalf("filtered %d rows, want 50", len(rows))
	}
	for _, r := range rows {
		if r[1].Int() >= 30 {
			t.Fatalf("row %v violates predicate", r)
		}
	}
}

func TestFilterCompileError(t *testing.T) {
	e := newEnv(t)
	tb := e.loadEmployees(t, 1)
	scan := NewSeqScan(e.ctx, tb, "employee")
	if _, err := CompilePred(scan.Schema(), "ghost", tuple.CmpEQ, tuple.NewInt(1)); err == nil {
		t.Fatal("unknown column should fail compilation")
	}
}

func TestProject(t *testing.T) {
	e := newEnv(t)
	tb := e.loadEmployees(t, 10)
	scan := NewSeqScan(e.ctx, tb, "employee")
	proj, err := NewProject(e.ctx, scan, []string{"employee.salary", "employee.name"})
	if err != nil {
		t.Fatal(err)
	}
	if proj.Schema().Len() != 2 || proj.Schema().Columns[0].Name != "employee.salary" {
		t.Fatalf("projected schema %v", proj.Schema())
	}
	rows, err := Collect(proj)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 || rows[0][1].Str() != "emp0000" {
		t.Fatalf("projected rows wrong: %v", rows[0])
	}
	if _, err := NewProject(e.ctx, NewSeqScan(e.ctx, tb, ""), []string{"ghost"}); err == nil {
		t.Fatal("projecting unknown column should fail")
	}
}

func TestIndexScanRange(t *testing.T) {
	e := newEnv(t)
	tb := e.loadEmployees(t, 400)
	idx := e.indexOn(t, tb, "age")

	lo := btree.Bound{Key: tuple.EncodeKey(nil, tuple.NewInt(25)), Inclusive: true}
	hi := btree.Bound{Key: tuple.EncodeKey(nil, tuple.NewInt(27)), Inclusive: true}
	scan := NewIndexScan(e.ctx, tb, idx, lo, hi, "employee")
	rows, err := Collect(scan)
	if err != nil {
		t.Fatal(err)
	}
	// Ages 25,26,27 each appear 10 times per 40-cycle over 400 rows → 30.
	if len(rows) != 30 {
		t.Fatalf("index scan found %d rows, want 30", len(rows))
	}
	for _, r := range rows {
		if r[1].Int() < 25 || r[1].Int() > 27 {
			t.Fatalf("row %v out of range", r)
		}
	}
}

func TestIndexScanReopen(t *testing.T) {
	e := newEnv(t)
	tb := e.loadEmployees(t, 40)
	idx := e.indexOn(t, tb, "age")
	key := tuple.EncodeKey(nil, tuple.NewInt(30))
	scan := NewIndexScan(e.ctx, tb, idx, btree.Exact(key), btree.Exact(key), "")
	for round := 0; round < 2; round++ {
		n, err := Count(scan)
		if err != nil {
			t.Fatal(err)
		}
		if n != 1 {
			t.Fatalf("round %d: %d rows", round, n)
		}
	}
}

// TestIndexScanReadsEachHeapPageOnce: an index whose key order visits every
// heap page again and again (age cycles every 40 rows) scanned whole through
// a pool far smaller than the table reads each table page once, and returns
// the rows in heap order.
func TestIndexScanReadsEachHeapPageOnce(t *testing.T) {
	disk := storage.NewDiskManager(1024)
	meter := sim.NewMeter()
	pool := buffer.NewPool(disk, 8, meter)
	e := &env{disk: disk, pool: pool, cat: catalog.New(pool), meter: meter, ctx: NewContext(meter)}
	tb := e.loadEmployees(t, 2000)
	idx := e.indexOn(t, tb, "age")
	if err := pool.EvictAll(); err != nil {
		t.Fatal(err)
	}
	before := pool.Stats().Misses
	rows, err := Collect(NewIndexScan(e.ctx, tb, idx, btree.Bound{}, btree.Bound{}, ""))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2000 {
		t.Fatalf("index scan found %d rows, want 2000", len(rows))
	}
	misses := pool.Stats().Misses - before
	if limit := int64(tb.NumPages() + idx.Tree.NumPages()); misses > limit {
		t.Errorf("the scan missed %d times, more than the table's %d pages and the index's %d", misses, tb.NumPages(), idx.Tree.NumPages())
	}
	for i, r := range rows {
		if want := fmt.Sprintf("emp%04d", i); r[0].Str() != want {
			t.Fatalf("row %d is %s, want %s: not heap order", i, r[0].Str(), want)
		}
	}
}

func TestHashJoin(t *testing.T) {
	e := newEnv(t)
	// dept(id, dname); employee joined on age = dept.id for test simplicity.
	deptSchema := tuple.NewSchema(
		tuple.Column{Name: "id", Kind: tuple.KindInt},
		tuple.Column{Name: "dname", Kind: tuple.KindString},
	)
	dept, err := e.cat.CreateTable("dept", deptSchema)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int64{20, 21, 22} {
		rec, _ := tuple.EncodeRow(nil, deptSchema, tuple.Row{tuple.NewInt(id), tuple.NewString(fmt.Sprintf("d%d", id))})
		if _, err := dept.Heap.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}
	emp := e.loadEmployees(t, 80) // ages 20..59, ×2

	j, err := NewHashJoin(e.ctx,
		NewSeqScan(e.ctx, dept, "dept"),
		NewSeqScan(e.ctx, emp, "employee"),
		"dept.id", "employee.age")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Collect(j)
	if err != nil {
		t.Fatal(err)
	}
	// Each of ages 20,21,22 appears twice in 80 rows → 6 join rows.
	if len(rows) != 6 {
		t.Fatalf("join produced %d rows, want 6", len(rows))
	}
	sch := j.Schema()
	di, ai := sch.MustOrdinal("dept.id"), sch.MustOrdinal("employee.age")
	for _, r := range rows {
		if r[di].Int() != r[ai].Int() {
			t.Fatalf("join row violates condition: %v", r)
		}
	}
}

func TestHashJoinErrors(t *testing.T) {
	e := newEnv(t)
	emp := e.loadEmployees(t, 4)
	l := NewSeqScan(e.ctx, emp, "a")
	r := NewSeqScan(e.ctx, emp, "b")
	if _, err := NewHashJoin(e.ctx, l, r, "a.ghost", "b.age"); err == nil {
		t.Fatal("bad build column should fail")
	}
	if _, err := NewHashJoin(e.ctx, l, r, "a.age", "b.ghost"); err == nil {
		t.Fatal("bad probe column should fail")
	}
	if _, err := NewHashJoin(e.ctx, l, r, "a.age", "b.name"); err == nil {
		t.Fatal("kind mismatch should fail")
	}
}

func TestIndexNLJoin(t *testing.T) {
	e := newEnv(t)
	emp := e.loadEmployees(t, 80)
	idx := e.indexOn(t, emp, "age")

	deptSchema := tuple.NewSchema(
		tuple.Column{Name: "id", Kind: tuple.KindInt},
	)
	dept, err := e.cat.CreateTable("dept", deptSchema)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int64{21, 25, 99} { // 99 matches nothing
		rec, _ := tuple.EncodeRow(nil, deptSchema, tuple.Row{tuple.NewInt(id)})
		if _, err := dept.Heap.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}
	// Inner-side predicate: salary > 0 (passes all) to exercise pred path.
	innerPred, err := CompilePred(emp.Schema, "salary", tuple.CmpGT, tuple.NewFloat(0))
	if err != nil {
		t.Fatal(err)
	}
	j, err := NewIndexNLJoin(e.ctx,
		NewSeqScan(e.ctx, dept, "dept"),
		"dept.id", emp, idx, "employee", []Pred{innerPred})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Collect(j)
	if err != nil {
		t.Fatal(err)
	}
	// Ages 21 and 25 appear twice each in 80 rows → 4 matches.
	if len(rows) != 4 {
		t.Fatalf("index NL join produced %d rows, want 4", len(rows))
	}
	// Filtering predicate that rejects everything.
	reject, _ := CompilePred(emp.Schema, "salary", tuple.CmpLT, tuple.NewFloat(0))
	j2, err := NewIndexNLJoin(e.ctx,
		NewSeqScan(e.ctx, dept, "dept"),
		"dept.id", emp, idx, "employee", []Pred{reject})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := Count(j2); err != nil || n != 0 {
		t.Fatalf("rejecting pred: n=%d err=%v", n, err)
	}
}

func TestCrossJoin(t *testing.T) {
	e := newEnv(t)
	sch := tuple.NewSchema(tuple.Column{Name: "x", Kind: tuple.KindInt})
	rowsOf := func(vals ...int64) []tuple.Row {
		out := make([]tuple.Row, len(vals))
		for i, v := range vals {
			out[i] = tuple.Row{tuple.NewInt(v)}
		}
		return out
	}
	lsch := sch.Rename(func(s string) string { return "l." + s })
	rsch := sch.Rename(func(s string) string { return "r." + s })
	j := NewCrossJoin(e.ctx,
		NewValuesScan(e.ctx, lsch, rowsOf(1, 2, 3)),
		NewValuesScan(e.ctx, rsch, rowsOf(10, 20)))
	rows, err := Collect(j)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("cross join %d rows, want 6", len(rows))
	}
	// Empty inner.
	j2 := NewCrossJoin(e.ctx,
		NewValuesScan(e.ctx, lsch, rowsOf(1, 2)),
		NewValuesScan(e.ctx, rsch, nil))
	if n, err := Count(j2); err != nil || n != 0 {
		t.Fatalf("empty inner: n=%d err=%v", n, err)
	}
}

// TestJoinEquivalence checks hash join and index-NL join produce the same
// multiset as a reference nested loop, on seeded random data.
func TestJoinEquivalence(t *testing.T) {
	e := newEnv(t)
	r := sim.NewRand(77)

	mkTable := func(name string, n int, maxKey int64) *catalog.Table {
		sch := tuple.NewSchema(
			tuple.Column{Name: "k", Kind: tuple.KindInt},
			tuple.Column{Name: "payload", Kind: tuple.KindInt},
		)
		tb, err := e.cat.CreateTable(name, sch)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			rec, _ := tuple.EncodeRow(nil, sch, tuple.Row{
				tuple.NewInt(r.Int63n(maxKey)), tuple.NewInt(int64(i)),
			})
			if _, err := tb.Heap.Insert(rec); err != nil {
				t.Fatal(err)
			}
		}
		return tb
	}
	a := mkTable("ta", 150, 20)
	b := mkTable("tb", 120, 20)
	idx := e.indexOn(t, b, "k")

	// Reference: naive double loop.
	rowsA, _ := Collect(NewSeqScan(e.ctx, a, "ta"))
	rowsB, _ := Collect(NewSeqScan(e.ctx, b, "tb"))
	var ref []string
	for _, ra := range rowsA {
		for _, rb := range rowsB {
			if ra[0].Int() == rb[0].Int() {
				ref = append(ref, fmt.Sprint(ra[1].Int(), "/", rb[1].Int()))
			}
		}
	}
	sort.Strings(ref)

	normalize := func(rows []tuple.Row, aOrd, bOrd int) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = fmt.Sprint(r[aOrd].Int(), "/", r[bOrd].Int())
		}
		sort.Strings(out)
		return out
	}

	hj, err := NewHashJoin(e.ctx, NewSeqScan(e.ctx, a, "ta"), NewSeqScan(e.ctx, b, "tb"), "ta.k", "tb.k")
	if err != nil {
		t.Fatal(err)
	}
	hjRows, err := Collect(hj)
	if err != nil {
		t.Fatal(err)
	}
	got := normalize(hjRows, hj.Schema().MustOrdinal("ta.payload"), hj.Schema().MustOrdinal("tb.payload"))
	if fmt.Sprint(got) != fmt.Sprint(ref) {
		t.Fatalf("hash join disagrees with reference: %d vs %d rows", len(got), len(ref))
	}

	ij, err := NewIndexNLJoin(e.ctx, NewSeqScan(e.ctx, a, "ta"), "ta.k", b, idx, "tb", nil)
	if err != nil {
		t.Fatal(err)
	}
	ijRows, err := Collect(ij)
	if err != nil {
		t.Fatal(err)
	}
	got = normalize(ijRows, ij.Schema().MustOrdinal("ta.payload"), ij.Schema().MustOrdinal("tb.payload"))
	if fmt.Sprint(got) != fmt.Sprint(ref) {
		t.Fatalf("index join disagrees with reference: %d vs %d rows", len(got), len(ref))
	}
}

func TestDrainClosesOnError(t *testing.T) {
	e := newEnv(t)
	tb := e.loadEmployees(t, 10)
	scan := NewSeqScan(e.ctx, tb, "")
	sentinel := fmt.Errorf("boom")
	err := Drain(scan, func(tuple.Row) error { return sentinel })
	if err != sentinel {
		t.Fatalf("err = %v", err)
	}
	// The underlying page pin must have been released: EvictAll succeeds
	// only when nothing is pinned.
	if err := e.pool.EvictAll(); err != nil {
		t.Fatalf("pins leaked: %v", err)
	}
}

func TestValuesScanRewind(t *testing.T) {
	e := newEnv(t)
	sch := tuple.NewSchema(tuple.Column{Name: "x", Kind: tuple.KindInt})
	vs := NewValuesScan(e.ctx, sch, []tuple.Row{{tuple.NewInt(1)}, {tuple.NewInt(2)}})
	for round := 0; round < 3; round++ {
		n, err := Count(vs)
		if err != nil || n != 2 {
			t.Fatalf("round %d: n=%d err=%v", round, n, err)
		}
	}
}
