package harness

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"specdb/internal/buffer"
	"specdb/internal/catalog"
	"specdb/internal/exec"
	"specdb/internal/plan"
	"specdb/internal/sim"
	"specdb/internal/storage"
	"specdb/internal/tuple"
)

// A sequential scan tests its selections, and the key of the hash join it
// feeds, on the stored record and decodes only what passes (DESIGN.md §15,
// "What a scan decodes"). The tests here hold that to the plans as they were
// before: the same rows in the same order, the same work on the meter, the
// same EXPLAIN ANALYZE actuals.

// gatesProbe reports whether a hash join's plan hands its key test to its
// probe side: the right child is a sequential access with nothing over the
// scan.
func gatesProbe(j *plan.JoinNode) bool {
	a, ok := j.Right.(*plan.TableAccess)
	return ok && j.Method == plan.JoinHash && a.Method == plan.AccessSeq && len(a.ColFilters) == 0
}

// fusesSelection reports whether a table access tests its selections inside
// its scan.
func fusesSelection(a *plan.TableAccess) bool {
	return a.Method == plan.AccessSeq && len(a.Filters) > 0
}

// hidden forwards the Iterator methods of the operator it wraps and nothing
// else. Installed as a Context's Observe it stands over every plan node, so no
// hash join can reach the scan below it: every probe key is looked up by the
// join, as before scans took the test.
type hidden struct{ exec.Iterator }

// orderedKey fingerprints rows in their order.
func orderedKey(rows []tuple.Row) uint64 {
	h := fnv.New64a()
	for _, r := range rows {
		fmt.Fprintf(h, "%d:", len(r))
		for _, v := range r {
			fmt.Fprintf(h, "%d%s|", v.Kind(), v)
		}
	}
	return h.Sum64()
}

// TestGatedScansAreExact runs the borrowed-row corpus bare and with every
// operator hidden, at the default work memory and at one byte, where every
// join spills and each record a gated scan skips is probe spill. Answers and
// their order, and the statement's work, must be equal. It then profiles
// each plan twice — the profiler forwarding the key test, and the profiler
// over hidden operators — and wants equal actuals at every node. Last, it
// checks what the spill accounting of skipped records rests on: a heap
// record is exactly as long as EncodedSize of the row it decodes to.
func TestGatedScansAreExact(t *testing.T) {
	env := tinyEnv(t, EnvConfig{BufferPoolPages: 512})
	cat := env.Eng.Catalog
	queries := contractQueries(t, cat)
	hide := func(_ any, it exec.Iterator) exec.Iterator { return hidden{it} }
	optimize := func(q *plan.Query, workMem int64) plan.Node {
		t.Helper()
		node, err := plan.Optimize(cat, q, plan.Options{Rates: sim.DefaultRates(), WorkMemBytes: workMem})
		if err != nil {
			t.Fatal(err)
		}
		return node
	}
	run := func(node plan.Node, ctx *exec.Context) (int, uint64, sim.Work) {
		t.Helper()
		it, err := node.Build(ctx)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := exec.Collect(it)
		if err != nil {
			t.Fatalf("%v\n%s", err, plan.Explain(node))
		}
		return len(rows), orderedKey(rows), ctx.Meter.Snapshot()
	}

	t.Run("answers and work", func(t *testing.T) {
		gated, fused, spilled := 0, 0, 0
		for _, workMem := range []int64{int64(512*8192) / 4, 1} {
			for i, q := range queries {
				node := optimize(q, workMem)
				plan.Walk(node, func(n plan.Node) {
					switch n := n.(type) {
					case *plan.JoinNode:
						if gatesProbe(n) {
							gated++
						}
					case *plan.TableAccess:
						if fusesSelection(n) {
							fused++
						}
					}
				})
				n, key, work := run(node, &exec.Context{Meter: sim.NewMeter(), WorkMemBytes: workMem})
				hn, hkey, hwork := run(node, &exec.Context{Meter: sim.NewMeter(), WorkMemBytes: workMem, Observe: hide})
				if n != hn || key != hkey || work != hwork {
					t.Errorf("work memory %d, query %d: %d rows (key %x), work %+v; hidden: %d rows (key %x), work %+v\n%s",
						workMem, i, n, key, work, hn, hkey, hwork, plan.Explain(node))
				}
				if workMem == 1 && work.PageWrites > 0 {
					spilled++
				}
			}
		}
		if gated == 0 || fused == 0 || spilled == 0 {
			t.Fatalf("%d gated probe scans, %d fused selections, %d spilled statements: each must be above zero", gated, fused, spilled)
		}
	})

	t.Run("explain analyze", func(t *testing.T) {
		for _, workMem := range []int64{int64(512*8192) / 4, 1} {
			for i, q := range queries {
				node := optimize(q, workMem)
				forwarded, opaque := exec.NewProfiler(), exec.NewProfiler()
				ctx := &exec.Context{Meter: sim.NewMeter(), WorkMemBytes: workMem}
				forwarded.Attach(ctx)
				run(node, ctx)
				ctx = &exec.Context{Meter: sim.NewMeter(), WorkMemBytes: workMem}
				opaque.Attach(ctx)
				profile := ctx.Observe
				ctx.Observe = func(n any, it exec.Iterator) exec.Iterator { return profile(n, hidden{it}) }
				run(node, ctx)
				plan.Walk(node, func(n plan.Node) {
					got, want := forwarded.Stats(n), opaque.Stats(n)
					if (got == nil) != (want == nil) || (got != nil && *got != *want) {
						t.Errorf("work memory %d, query %d, %T: actuals %+v, hidden %+v\n%s", workMem, i, n, got, want, plan.Explain(node))
					}
				})
			}
		}
	})

	t.Run("record length", func(t *testing.T) {
		schema := tuple.NewSchema(
			tuple.Column{Name: "i", Kind: tuple.KindInt},
			tuple.Column{Name: "f", Kind: tuple.KindFloat},
			tuple.Column{Name: "s", Kind: tuple.KindString},
			tuple.Column{Name: "d", Kind: tuple.KindDate},
		)
		cat := catalog.New(buffer.NewPool(storage.NewDiskManager(0), 64, sim.NewMeter()))
		tb, err := cat.CreateTable("edges", schema)
		if err != nil {
			t.Fatal(err)
		}
		ints := []int64{0, 1, -1, 63, -64, 64, -65, 8191, -8192, 8192, -8193, 1<<53 - 1, 1 << 53, 1<<53 + 1, -(1 << 53), math.MaxInt64, math.MinInt64}
		floats := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(-1), 1 << 53}
		strs := []string{"", "x", fmt.Sprintf("%0127d", 0), fmt.Sprintf("%0128d", 0), fmt.Sprintf("%01000d", 0)}
		for i, v := range ints {
			row := tuple.Row{tuple.NewInt(v), tuple.NewFloat(floats[i%len(floats)]), tuple.NewString(strs[i%len(strs)]), tuple.NewDate(ints[len(ints)-1-i])}
			rec, err := tuple.EncodeRow(nil, schema, row)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tb.Heap.Insert(rec); err != nil {
				t.Fatal(err)
			}
		}
		records := 0
		err = tb.Heap.Scan(func(_ storage.RID, rec []byte) error {
			row, _, err := tuple.DecodeRow(rec, schema)
			if err != nil {
				return err
			}
			if size := tuple.EncodedSize(schema, row); size != len(rec) {
				t.Errorf("record of %d bytes decodes to %v, of EncodedSize %d", len(rec), row, size)
			}
			records++
			return nil
		})
		if err != nil || records != len(ints) {
			t.Fatalf("scanned %d of %d records: %v", records, len(ints), err)
		}
	})
}
