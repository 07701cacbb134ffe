package exec

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"unsafe"

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

// stringTable creates name(k int, s string, v int) with n rows, k = i % keys
// and s a twelve-byte string, on a pool large enough that scans never miss.
// Decoding a row copies its string, which is one allocation.
func stringTable(t *testing.T, cat *catalog.Catalog, name string, n, keys int) *catalog.Table {
	t.Helper()
	schema := tuple.NewSchema(
		tuple.Column{Name: "k", Kind: tuple.KindInt},
		tuple.Column{Name: "s", Kind: tuple.KindString},
		tuple.Column{Name: "v", Kind: tuple.KindInt},
	)
	tb, err := cat.CreateTable(name, schema)
	if err != nil {
		t.Fatal(err)
	}
	var rec []byte
	for i := 0; i < n; i++ {
		row := tuple.Row{tuple.NewInt(int64(i % keys)), tuple.NewString(fmt.Sprintf("row-%08d", i)), tuple.NewInt(int64(i))}
		if rec, err = tuple.EncodeRow(rec[:0], schema, row); err != nil {
			t.Fatal(err)
		}
		if _, err := tb.Heap.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

// TestFusedScanAllocatesNothingPerRejectedRow is the scan+filter gate with
// the selection fused into the scan, over a string column: a record the
// selection rejects is never decoded, so the one allocation of a Next is the
// string of the row it returns. A Filter over a plain scan copies the string
// of each of the hundred rows it rejects.
func TestFusedScanAllocatesNothingPerRejectedRow(t *testing.T) {
	cat, ctx := allocEnv()
	tb := stringTable(t, cat, "strs", 40000, 100)
	pred, err := CompilePred(tb.Schema, "k", tuple.CmpEQ, tuple.NewInt(0))
	if err != nil {
		t.Fatal(err)
	}
	scan := NewSeqScan(ctx, tb, "").Where(pred)
	if err := scan.Open(); err != nil {
		t.Fatal(err)
	}
	defer scan.Close()
	allocs := testing.AllocsPerRun(300, func() {
		if _, ok, err := scan.Next(); err != nil || !ok {
			t.Fatalf("Next: ok=%v err=%v", ok, err)
		}
	})
	if allocs != 1 {
		t.Fatalf("a fused scan allocates %.2f times per row returned (a hundred records read), want 1: its string", allocs)
	}
}

// TestGatedProbeAllocatesNothingPerSkippedRow: a hash join hands its key
// test to the sequential scan on its probe side, which skips the records
// whose key the build side does not hold without decoding them. One probe
// record in four matches, so a plain scan would copy four strings per emitted
// row; the gated one copies only the matching row's.
func TestGatedProbeAllocatesNothingPerSkippedRow(t *testing.T) {
	cat, ctx := allocEnv()
	build := intTable(t, cat, "b", 250, 250)
	probe := stringTable(t, cat, "p", 40000, 1000)
	scan := NewSeqScan(ctx, probe, "p")
	j, err := NewHashJoin(ctx, NewSeqScan(ctx, build, "b"), scan, "b.k", "p.k")
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Open(); err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if scan.gate == nil {
		t.Fatal("the join did not gate its probe scan")
	}
	allocs := testing.AllocsPerRun(5000, func() {
		if _, ok, err := j.Next(); err != nil || !ok {
			t.Fatalf("Next: ok=%v err=%v", ok, err)
		}
	})
	if allocs != 1 {
		t.Fatalf("a gated probe allocates %.2f times per emitted row (four records read), want 1: the match's string", allocs)
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

// arenaListAllocs is what listing n chunks allocates: nothing for those the
// arena lists in itself, and for the rest whatever append does to a list of
// that type — done here, not derived, so the gates below are exact and follow
// the runtime's growth rule.
func arenaListAllocs(n int) int {
	var list [][]tuple.Value
	allocs := 0
	for i := arenaInlineChunks; i < n; i++ {
		if len(list) == cap(list) {
			allocs++
		}
		list = append(list, nil)
	}
	return allocs
}

// keptRows keeps the arena loop from being optimized away.
var keptRows []tuple.Row

func TestRowArenaAllocatesOncePerChunk(t *testing.T) {
	const rows, width = 50000, 7
	row := make(tuple.Row, width)
	for i := range row {
		row[i] = tuple.NewInt(int64(i))
	}
	allocs := testing.AllocsPerRun(5, func() {
		a := rowArena{width: width}
		for i := 0; i < rows; i++ {
			a.keep(row)
		}
		keptRows = a.rows()
	})
	// One allocation per chunk and one for the block of row headers, cut at
	// its exact size once: no slice of headers grows with the rows. The list
	// of chunks is the only thing that grows, once per doubling past the
	// arena's own eight slots.
	chunks := arenaChunks(rows, width)
	if chunks <= arenaInlineChunks {
		t.Fatalf("%d chunks do not outgrow the arena's inline list", chunks)
	}
	if want := chunks + 1 + arenaListAllocs(chunks); int(allocs) != want {
		t.Fatalf("keeping %d rows allocates %.0f times, want %d chunks + 1 header block + %d for the chunk list = %d",
			rows, allocs, chunks, arenaListAllocs(chunks), want)
	}
	if len(keptRows) != rows || cap(keptRows) != rows {
		t.Fatalf("rows() has len %d cap %d, want exactly %d", len(keptRows), cap(keptRows), rows)
	}
	// Rows come back in order, each a copy with no spare capacity: appending
	// to one must not reach the next, also across a chunk boundary. The same
	// holds on the recycled path, whose second round gets the first round's
	// chunks and header block back with their old contents still in them.
	for _, recycle := range []bool{false, true, true} {
		a := rowArena{width: 3, recycle: recycle}
		for i := 0; i < 200; i++ { // 256 values hold 85 rows: three chunks
			a.keep(tuple.Row{tuple.NewInt(int64(i)), tuple.NewInt(0), tuple.NewInt(0)})
		}
		got := a.rows()
		if len(got) != 200 {
			t.Fatalf("recycle %v: %d rows, want 200", recycle, len(got))
		}
		for i, r := range got {
			if r[0].Int() != int64(i) || len(r) != 3 || cap(r) != 3 {
				t.Fatalf("recycle %v: row %d is %v (cap %d)", recycle, i, r, cap(r))
			}
		}
		_ = append(got[0], tuple.NewInt(99))
		if got[1][0].Int() != 1 {
			t.Fatalf("recycle %v: append to a kept row wrote into its neighbour: %v", recycle, got[1])
		}
		a.release()
		// No rows: nil. Rows of no columns: that many nil rows, and no chunk.
		if r := (&rowArena{width: 3, recycle: recycle}).rows(); r != nil {
			t.Fatalf("recycle %v: empty arena returns %v, want nil", recycle, r)
		}
		z := rowArena{recycle: recycle}
		for i := 0; i < 200; i++ {
			z.keep(nil)
		}
		if r := z.rows(); len(r) != 200 || slices.ContainsFunc(r, func(r tuple.Row) bool { return r != nil }) || z.chunks != 0 {
			t.Fatalf("recycle %v: zero-width rows: %v, %d chunks", recycle, r, z.chunks)
		}
		z.release()
	}
}

func TestHashJoinReusesBuildMemory(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cat, ctx := allocEnv()
	const rows = 30000
	build := intTable(t, cat, "b", rows, rows)
	empty := intTable(t, cat, "p", 0, 1)
	statement := func() (mallocs, bytes uint64) {
		j, err := NewHashJoin(ctx, NewSeqScan(ctx, build, "b"), NewSeqScan(ctx, empty, "p"), "b.k", "p.k")
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := j.Open(); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
	}
	chunks := arenaChunks(rows, 2)
	runtime.GC() // two collections empty every pool
	runtime.GC()
	cold, coldBytes := statement()
	warm, warmBytes := statement()
	if smallest := uint64(arenaMinChunk) * uint64(unsafe.Sizeof(tuple.Value{})); warmBytes >= smallest {
		t.Fatalf("a warm build of %d rows allocates %d bytes, at least one chunk (%d B): cold %d allocations, %d bytes",
			rows, warmBytes, smallest, cold, coldBytes)
	}
	// Cold, it took every chunk, the header block and keys, next and slots
	// from make; warm, none of them.
	if cold-warm < uint64(chunks+4) {
		t.Fatalf("cold build: %d allocations, warm: %d; want at least %d chunks + 1 header block + 3 table arrays fewer",
			cold, warm, chunks)
	}
}

func TestCollectAllocatesChunksAndOneHeaderSlice(t *testing.T) {
	cat, ctx := allocEnv()
	const rows = 30000
	tb := intTable(t, cat, "t", rows, rows)
	one := intTable(t, cat, "t1", 1, 1)
	collectAllocs := func(tb *catalog.Table) int {
		return int(testing.AllocsPerRun(5, func() {
			out, err := Collect(NewSeqScan(ctx, tb, ""))
			if err != nil || len(out) != int(tb.RowCount()) || cap(out) != len(out) {
				t.Fatalf("Collect: %d rows (cap %d), err %v", len(out), cap(out), err)
			}
			keptRows = out
		}))
	}
	chunks := arenaChunks(rows, 2)
	if got, want := collectAllocs(tb)-collectAllocs(one), chunks-1+arenaListAllocs(chunks); got != want {
		t.Fatalf("collecting %d rows allocates %d times more than collecting one, want %d further chunks + %d for the chunk list",
			rows, got, chunks-1, arenaListAllocs(chunks))
	}
}

// TestHashJoinRejectedCandidateAllocatesNothing is the gate on the residual
// test: a candidate pair that fails the second edge costs two counted tuples
// and nothing else — no row is assembled for it, nothing is allocated.
func TestHashJoinRejectedCandidateAllocatesNothing(t *testing.T) {
	cat, ctx := allocEnv()
	// Both sides have k = i % 50 and v = i: every probe row meets 10 build
	// rows on k and at most one of them on v, so nine candidates in ten fail.
	build := intTable(t, cat, "b", 500, 50)
	probe := intTable(t, cat, "p", 40000, 50)
	j, err := NewHashJoin(ctx, NewSeqScan(ctx, build, "b"), NewSeqScan(ctx, probe, "p"), "b.k", "p.k",
		JoinEdge{LeftCol: "b.v", RightCol: "p.v"})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Open(); err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	allocs := testing.AllocsPerRun(400, func() {
		if _, ok, err := j.Next(); err != nil || !ok {
			t.Fatalf("Next: ok=%v err=%v", ok, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a two-edge probe allocates %.2f times per emitted row (ten candidates each), want 0", allocs)
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
