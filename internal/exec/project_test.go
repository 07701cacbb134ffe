package exec

import (
	"fmt"
	"strings"
	"testing"

	"specdb/internal/btree"
	"specdb/internal/buffer"
	"specdb/internal/catalog"
	"specdb/internal/sim"
	"specdb/internal/storage"
	"specdb/internal/tuple"
)

// projectionCase is one projection over one input, built twice: bare, where
// the scans decode only what the Project reads and the Project writes each
// answer value straight from the record or the join's match, and through
// opaque children, which an operator can neither prune nor gate — the
// whole-row reference.
type projectionCase struct {
	name  string
	cols  []string
	input func(ctx *Context, hide func(Iterator) Iterator) (Iterator, error)
}

func projectionCases(t *testing.T, e *env) []projectionCase {
	t.Helper()
	build := stringTable(t, e.cat, "b", 200, 50)
	probe := stringTable(t, e.cat, "p", 2000, 100)
	idx := e.indexOn(t, probe, "v")
	join := func(probeSel ...Pred) func(*Context, func(Iterator) Iterator) (Iterator, error) {
		return func(ctx *Context, hide func(Iterator) Iterator) (Iterator, error) {
			left := hide(NewSeqScan(ctx, build, "b"))
			right := hide(NewSeqScan(ctx, probe, "p").Where(probeSel...))
			return NewHashJoin(ctx, left, right, "b.k", "p.k")
		}
	}
	scan := func(ctx *Context, hide func(Iterator) Iterator) (Iterator, error) {
		return hide(NewSeqScan(ctx, probe, "")), nil
	}
	indexScan := func(ctx *Context, hide func(Iterator) Iterator) (Iterator, error) {
		return hide(NewIndexScan(ctx, probe, idx, inclusive(100), inclusive(899), "")), nil
	}
	innerSel, err := CompilePred(probe.Schema, "k", tuple.CmpLT, tuple.NewInt(30))
	if err != nil {
		t.Fatal(err)
	}
	indexJoin := func(ctx *Context, hide func(Iterator) Iterator) (Iterator, error) {
		return NewIndexNLJoin(ctx, hide(NewSeqScan(ctx, build, "b")), "b.v", probe, idx, "p", []Pred{innerSel})
	}
	crossJoin := func(ctx *Context, hide func(Iterator) Iterator) (Iterator, error) {
		few, err := CompilePred(probe.Schema, "k", tuple.CmpEQ, tuple.NewInt(7))
		if err != nil {
			return nil, err
		}
		return NewCrossJoin(ctx, hide(NewSeqScan(ctx, build, "b")), hide(NewSeqScan(ctx, probe, "p").Where(few))), nil
	}
	// Probe keys 50..99 never meet the build keys 0..49.
	unmatched, err := CompilePred(probe.Schema, "k", tuple.CmpGE, tuple.NewInt(50))
	if err != nil {
		t.Fatal(err)
	}
	return []projectionCase{
		{"join, a column projected twice", []string{"b.v", "p.s", "b.v"}, join()},
		{"join, projections out of storage order", []string{"p.v", "b.s", "b.k", "p.k"}, join()},
		{"join, a string dead on the probe side and live on the build side", []string{"b.s", "p.v"}, join()},
		{"join, no probe key matches", []string{"p.s", "b.s"}, join(unmatched)},
		{"join, every column", []string{"b.k", "b.s", "b.v", "p.k", "p.s", "p.v"}, join()},
		{"scan, a column projected twice out of storage order", []string{"s", "k", "s"}, scan},
		{"scan, one column", []string{"v"}, scan},
		{"index scan, projections out of storage order", []string{"v", "s"}, indexScan},
		{"index join, a string of the inner side", []string{"p.s", "b.k"}, indexJoin},
		{"index join, every column", []string{"b.k", "b.s", "b.v", "p.k", "p.s", "p.v"}, indexJoin},
		{"cross join, a column of each side", []string{"p.v", "b.s"}, crossJoin},
	}
}

// TestProjectionWritesWhatTheWholeRowsWould: a Project over a pruned input
// produces the rows, in the order, and leaves the meter where the same
// Project over whole rows does — collected (each value written straight into
// the answer), counted (through Next), and with a join that spills.
func TestProjectionWritesWhatTheWholeRowsWould(t *testing.T) {
	e := heldEnv()
	hidden := func(it Iterator) Iterator { return opaque{it} }
	bare := func(it Iterator) Iterator { return it }
	for _, c := range projectionCases(t, e) {
		for _, workMem := range []int64{0, 1} {
			t.Run(fmt.Sprintf("%s/work memory %d", c.name, workMem), func(t *testing.T) {
				run := func(hide func(Iterator) Iterator, collect bool) ([]tuple.Row, int64, sim.Work) {
					meter := sim.NewMeter()
					ctx := &Context{Meter: meter, WorkMemBytes: workMem}
					in, err := c.input(ctx, hide)
					if err != nil {
						t.Fatal(err)
					}
					p, err := NewProject(ctx, hide(in), c.cols)
					if err != nil {
						t.Fatal(err)
					}
					if !collect {
						n, err := Count(p)
						if err != nil {
							t.Fatal(err)
						}
						return nil, n, meter.Snapshot()
					}
					rows, err := Collect(p)
					if err != nil {
						t.Fatal(err)
					}
					return rows, int64(len(rows)), meter.Snapshot()
				}
				want, wantN, wantWork := run(hidden, true)
				got, _, work := run(bare, true)
				if len(got) != len(want) {
					t.Fatalf("%d rows, whole rows give %d", len(got), len(want))
				}
				for i := range want {
					if got[i].String() != want[i].String() {
						t.Fatalf("row %d is %v, whole rows give %v", i, got[i], want[i])
					}
				}
				if work != wantWork {
					t.Fatalf("work %+v, whole rows %+v", work, wantWork)
				}
				if _, n, work := run(bare, false); n != wantN || work != wantWork {
					t.Fatalf("counted: %d rows and work %+v, whole rows %d and %+v", n, work, wantN, wantWork)
				}
				if c.name == "join, no probe key matches" && len(want) != 0 {
					t.Fatalf("the unmatched join returned %d rows", len(want))
				}
				if c.name != "join, no probe key matches" && len(want) == 0 {
					t.Fatal("the case has no rows to compare")
				}
				if workMem == 1 && strings.HasPrefix(c.name, "join") && work.PageWrites == 0 {
					t.Fatal("the join did not spill at one byte of work memory")
				}
			})
		}
	}
}

// TestPrunedJoinReportsWholeStoredLengths: a join whose consumer reads one
// column still reports, after every row, the stored length of the whole
// records behind it: the sum its inputs report, which for scans is their
// records' lengths, EncodedSize of the rows they decode to.
func TestPrunedJoinReportsWholeStoredLengths(t *testing.T) {
	cat, ctx := allocEnv()
	build := stringTable(t, cat, "b", 200, 50)
	probe := stringTable(t, cat, "p", 2000, 100)
	j, err := NewHashJoin(ctx, NewSeqScan(ctx, build, "b"), NewSeqScan(ctx, probe, "p"), "b.k", "p.k")
	if err != nil {
		t.Fatal(err)
	}
	whole, err := NewHashJoin(ctx, opaque{NewSeqScan(ctx, build, "b")}, opaque{NewSeqScan(ctx, probe, "p")}, "b.k", "p.k")
	if err != nil {
		t.Fatal(err)
	}
	j.Prune(tuple.ColsOf(4)) // p.s
	if err := j.Open(); err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := whole.Open(); err != nil {
		t.Fatal(err)
	}
	defer whole.Close()
	n := 0
	for {
		row, ok, err := j.Next()
		wrow, wok, werr := whole.Next()
		if err != nil || werr != nil || ok != wok {
			t.Fatalf("row %d: (%v, %v) beside whole rows' (%v, %v)", n, ok, err, wok, werr)
		}
		if !ok {
			break
		}
		if row[4].Str() != wrow[4].Str() {
			t.Fatalf("row %d: p.s %v, whole rows %v", n, row[4], wrow[4])
		}
		if got, want := j.StoredLen(), tuple.EncodedSize(whole.Schema(), wrow); got != want || whole.StoredLen() != want {
			t.Fatalf("row %d: stored length %d, whole rows %d, EncodedSize %d", n, got, whole.StoredLen(), want)
		}
		n++
	}
	if n == 0 {
		t.Fatal("the join returned no rows")
	}
}

// heldEnv is an environment whose pool holds everything the tests here
// store, indexes included, so that no fetch allocates.
func heldEnv() *env {
	disk := storage.NewDiskManager(0)
	meter := sim.NewMeter()
	pool := buffer.NewPool(disk, 1024, meter)
	return &env{disk: disk, pool: pool, cat: catalog.New(pool), meter: meter, ctx: NewContext(meter)}
}

// inclusive is the bound at v, v included.
func inclusive(v int64) btree.Bound {
	return btree.Bound{Key: tuple.EncodeKey(nil, tuple.NewInt(v)), Inclusive: true}
}

// TestFusedIndexScanAllocatesNothingPerRejectedRow is the fused-scan gate for
// an index scan: the selection an index access carries beside its range is
// tested on each fetched record before it is decoded, so a Next that fetches
// a hundred records allocates only the string of the one it returns.
func TestFusedIndexScanAllocatesNothingPerRejectedRow(t *testing.T) {
	e := heldEnv()
	tb := stringTable(t, e.cat, "strs", 40000, 100)
	idx := e.indexOn(t, tb, "v")
	pred, err := CompilePred(tb.Schema, "k", tuple.CmpEQ, tuple.NewInt(0))
	if err != nil {
		t.Fatal(err)
	}
	scan := NewIndexScan(e.ctx, tb, idx, inclusive(0), inclusive(39999), "").Where(pred)
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
		t.Fatalf("a fused index scan allocates %.2f times per row returned (a hundred records read), want 1: its string", allocs)
	}
}
