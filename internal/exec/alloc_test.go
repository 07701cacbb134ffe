package exec

import (
	"fmt"
	"testing"

	"specdb/internal/buffer"
	"specdb/internal/catalog"
	"specdb/internal/sim"
	"specdb/internal/storage"
	"specdb/internal/tuple"
)

// Memory gates of the executor (DESIGN.md §15). They count allocations with
// testing.AllocsPerRun on a pool that holds the data, so they do not depend
// on the machine: a row that nobody keeps must cost no allocation.

// intTable creates name(k int, v int) with n rows, k = i % keys, on a pool
// large enough that scans never miss.
func intTable(t *testing.T, cat *catalog.Catalog, name string, n, keys int) *catalog.Table {
	t.Helper()
	schema := tuple.NewSchema(
		tuple.Column{Name: "k", Kind: tuple.KindInt},
		tuple.Column{Name: "v", Kind: tuple.KindInt},
	)
	tb, err := cat.CreateTable(name, schema)
	if err != nil {
		t.Fatal(err)
	}
	var rec []byte
	for i := 0; i < n; i++ {
		rec, err = tuple.EncodeRow(rec[:0], schema, tuple.Row{tuple.NewInt(int64(i % keys)), tuple.NewInt(int64(i))})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tb.Heap.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

func allocEnv() (*catalog.Catalog, *Context) {
	meter := sim.NewMeter()
	pool := buffer.NewPool(storage.NewDiskManager(0), 1024, meter)
	return catalog.New(pool), NewContext(meter)
}

func TestScanFilterAllocatesNothingPerRejectedRow(t *testing.T) {
	cat, ctx := allocEnv()
	tb := intTable(t, cat, "ints", 40000, 100)
	// k = 0 keeps one row in a hundred: every Next decodes a hundred rows
	// (crossing pages on the way) and rejects all but the last.
	pred, err := CompilePred(tb.Schema, "k", tuple.CmpEQ, tuple.NewInt(0))
	if err != nil {
		t.Fatal(err)
	}
	f := NewFilter(ctx, NewSeqScan(ctx, tb, ""), []Pred{pred})
	if err := f.Open(); err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	allocs := testing.AllocsPerRun(300, func() {
		if _, ok, err := f.Next(); err != nil || !ok {
			t.Fatalf("Next: ok=%v err=%v", ok, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("scan+filter allocates %.2f times per hundred rows, want 0", allocs)
	}
}

func TestHashJoinProbeAllocatesNothing(t *testing.T) {
	cat, ctx := allocEnv()
	build := intTable(t, cat, "b", 500, 500)
	// Probe keys 0..999: half of the probe rows find no match, the other half
	// one match each, and none of them is retained.
	probe := intTable(t, cat, "p", 40000, 1000)
	j, err := NewHashJoin(ctx, NewSeqScan(ctx, build, "b"), NewSeqScan(ctx, probe, "p"), "b.k", "p.k")
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Open(); err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	allocs := testing.AllocsPerRun(10000, func() {
		if _, ok, err := j.Next(); err != nil || !ok {
			t.Fatalf("Next: ok=%v err=%v", ok, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("hash-join probe allocates %.2f times per emitted row, want 0", allocs)
	}
}

// arenaChunks is how many chunks rowArena takes to keep rows rows of width
// values each, by its doubling rule.
func arenaChunks(rows, width int) int {
	chunks, free, size := 0, 0, 0
	for i := 0; i < rows; i++ {
		if width > free {
			size = min(max(2*size, arenaMinChunk), arenaMaxChunk)
			free = max(size, width)
			chunks++
		}
		free -= width
	}
	return chunks
}

// keptRow keeps the arena benchmark loop from being optimized away.
var keptRow tuple.Row

func TestRowArenaAllocatesOncePerChunk(t *testing.T) {
	const rows, width = 50000, 7
	row := make(tuple.Row, width)
	for i := range row {
		row[i] = tuple.NewInt(int64(i))
	}
	allocs := testing.AllocsPerRun(5, func() {
		var a rowArena
		for i := 0; i < rows; i++ {
			keptRow = a.keep(row)
		}
	})
	if want := arenaChunks(rows, width); int(allocs) != want {
		t.Fatalf("keeping %d rows allocates %.0f times, want one per chunk = %d", rows, allocs, want)
	}
	// A kept row is a copy with no spare capacity: appending to it must not
	// reach the next row.
	var a rowArena
	first, second := a.keep(row), a.keep(row)
	_ = append(first, tuple.NewInt(99))
	if second[0].Int() != 0 || cap(first) != width {
		t.Fatalf("append to a kept row wrote into its neighbour: %v (cap %d)", second, cap(first))
	}
}

func TestHashJoinBuildAllocatesPerChunkNotPerRow(t *testing.T) {
	cat, ctx := allocEnv()
	const rows = 30000
	build := intTable(t, cat, "b", rows, rows)
	empty := intTable(t, cat, "p", 0, 1)
	allocs := testing.AllocsPerRun(5, func() {
		j, err := NewHashJoin(ctx, NewSeqScan(ctx, build, "b"), NewSeqScan(ctx, empty, "p"), "b.k", "p.k")
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Open(); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	})
	// One allocation per arena chunk; beside them only what does not grow
	// with the row count faster than its logarithm: the doubling slice of row
	// headers, the table's three arrays, and the operators themselves.
	if limit := float64(arenaChunks(rows, 2) + 64); allocs > limit {
		t.Fatalf("building %d rows allocates %.0f times, want at most %.0f", rows, allocs, limit)
	}
}

// TestHashJoinMatchOrderIsBuildOrder pins the order a materialized view's
// rows are stored in: the matches of one probe row come out in the order the
// build side produced them, for every key kind.
func TestHashJoinMatchOrderIsBuildOrder(t *testing.T) {
	ctx := NewContext(sim.NewMeter())
	kinds := map[tuple.Kind]func(i int) tuple.Value{
		tuple.KindInt:    func(i int) tuple.Value { return tuple.NewInt(int64(i - 3)) },
		tuple.KindDate:   func(i int) tuple.Value { return tuple.NewDate(int64(i)) },
		tuple.KindFloat:  func(i int) tuple.Value { return tuple.NewFloat(float64(i)/4 - 1) },
		tuple.KindString: func(i int) tuple.Value { return tuple.NewString(fmt.Sprintf("key-%d", i)) },
	}
	for kind, key := range kinds {
		bs := tuple.NewSchema(tuple.Column{Name: "bk", Kind: kind}, tuple.Column{Name: "seq", Kind: tuple.KindInt})
		ps := tuple.NewSchema(tuple.Column{Name: "pk", Kind: kind})
		var build, probe []tuple.Row
		for i := 0; i < 600; i++ { // 7 keys, ~85 build rows each, interleaved
			build = append(build, tuple.Row{key(i % 7), tuple.NewInt(int64(i))})
		}
		for i := 0; i < 9; i++ { // keys 7 and 8 match nothing
			probe = append(probe, tuple.Row{key(i)})
		}
		j, err := NewHashJoin(ctx, NewValuesScan(ctx, bs, build), NewValuesScan(ctx, ps, probe), "bk", "pk")
		if err != nil {
			t.Fatal(err)
		}
		rows, err := Collect(j)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 600 {
			t.Fatalf("%v keys: %d rows, want 600", kind, len(rows))
		}
		// Probe order outside, build order inside: seq runs k, k+7, k+14, …
		n := 0
		for k := 0; k < 7; k++ {
			for seq := k; seq < 600; seq += 7 {
				r := rows[n]
				if !r[0].Equal(key(k)) || !r[2].Equal(key(k)) || r[1].Int() != int64(seq) {
					t.Fatalf("%v keys: row %d is %v, want key %v seq %d", kind, n, r, key(k), seq)
				}
				n++
			}
		}
	}
}
