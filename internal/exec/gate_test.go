package exec

import (
	"fmt"
	"testing"

	"specdb/internal/catalog"
	"specdb/internal/sim"
	"specdb/internal/tuple"
)

// opaque forwards the Iterator methods of what it wraps and nothing else: a
// hash join over it cannot hand its key test down, so the join looks every
// probe key up itself, as it did before scans took the test.
type opaque struct{ Iterator }

// gateTables creates a build side b(k int, name string) of 100 rows, keys 0,
// 4, …, 396, and a probe side p(k int, name string, pad string) of 3000 rows:
// the first 2000 cycle through keys 0–399, so one in four matches, and the
// last 1000 (a few pages of them) match nothing. A name is "n-" and the key,
// so joining on name matches what joining on k does.
func gateTables(t *testing.T, e *env) (build, probe *catalog.Table) {
	t.Helper()
	load := func(name string, schema *tuple.Schema, n int, row func(i int) tuple.Row) *catalog.Table {
		tb, err := e.cat.CreateTable(name, schema)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			rec, err := tuple.EncodeRow(nil, schema, row(i))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tb.Heap.Insert(rec); err != nil {
				t.Fatal(err)
			}
		}
		return tb
	}
	key := func(k int) []tuple.Value {
		return []tuple.Value{tuple.NewInt(int64(k)), tuple.NewString(fmt.Sprintf("n-%d", k))}
	}
	build = load("b", tuple.NewSchema(
		tuple.Column{Name: "k", Kind: tuple.KindInt},
		tuple.Column{Name: "name", Kind: tuple.KindString},
	), 100, func(i int) tuple.Row { return key(4 * i) })
	probe = load("p", tuple.NewSchema(
		tuple.Column{Name: "k", Kind: tuple.KindInt},
		tuple.Column{Name: "name", Kind: tuple.KindString},
		tuple.Column{Name: "pad", Kind: tuple.KindString},
	), 3000, func(i int) tuple.Row {
		k := i % 400
		if i >= 2000 {
			k = 1000 + i
		}
		return append(key(k), tuple.NewString(fmt.Sprintf("padding-padding-padding-%06d", i)))
	})
	return build, probe
}

// TestGatedJoinMatchesUngated runs a hash join over a sequential probe scan
// that takes the join's key test and, with a selection, fuses it; and the
// same join over a Filter and a plain scan hidden behind opaque, which does
// neither. Rows, their order and the work on the meter must be equal: on
// int and string keys, with and without the selection, in memory and spilled
// (one byte of work memory), where every skipped record's bytes are probe
// spill — the last thousand records are all skipped by the final pull.
func TestGatedJoinMatchesUngated(t *testing.T) {
	e := newEnv(t)
	build, probe := gateTables(t, e)
	for _, col := range []string{"k", "name"} {
		for _, workMem := range []int64{0, 1} {
			for _, selective := range []bool{false, true} {
				run := func(hide bool) ([]string, sim.Work) {
					t.Helper()
					ctx := &Context{Meter: e.meter, WorkMemBytes: workMem}
					var preds []Pred
					if selective {
						// Keeps names below "n-3": keys 0–2, 10–29 and 100–299,
						// none of the last thousand.
						p, err := CompilePred(probe.Schema, "name", tuple.CmpLT, tuple.NewString("n-3"))
						if err != nil {
							t.Fatal(err)
						}
						preds = []Pred{p}
					}
					scan := NewSeqScan(ctx, probe, "p")
					var right Iterator = scan.Where(preds...)
					if hide {
						right = NewSeqScan(ctx, probe, "p")
						if selective {
							right = NewFilter(ctx, right, preds)
						}
						right = opaque{right}
					}
					j, err := NewHashJoin(ctx, NewSeqScan(ctx, build, "b"), right, "b."+col, "p."+col)
					if err != nil {
						t.Fatal(err)
					}
					before := e.meter.Snapshot()
					var rows []string
					err = Drain(j, func(r tuple.Row) error {
						rows = append(rows, r.String())
						return nil
					})
					if err != nil {
						t.Fatal(err)
					}
					if !hide && scan.gate == nil {
						t.Fatal("the join did not gate its probe scan")
					}
					return rows, e.meter.Since(before)
				}
				got, gotWork := run(false)
				want, wantWork := run(true)
				name := fmt.Sprintf("on %s, work memory %d, selection %v", col, workMem, selective)
				if len(want) == 0 {
					t.Fatalf("%s: the ungated join returned no rows", name)
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("%s: %d rows gated, %d ungated, or another order", name, len(got), len(want))
				}
				if gotWork != wantWork {
					t.Errorf("%s: gated work %+v, ungated %+v", name, gotWork, wantWork)
				}
				if workMem == 1 && wantWork.PageWrites == 0 {
					t.Errorf("%s: the join did not spill", name)
				}
			}
		}
	}
}

// TestProfilerForwardsTheGate is EXPLAIN ANALYZE over a gated probe scan: the
// profiler's wrapper hands the join's key test on, and counts each record the
// scan skips as a row the scan produced, so every node's actuals equal those
// of a profiled run whose probe scan is hidden from the join.
func TestProfilerForwardsTheGate(t *testing.T) {
	e := newEnv(t)
	build, probe := gateTables(t, e)
	run := func(hide bool) (map[string]OpStats, bool) {
		t.Helper()
		ctx := &Context{Meter: e.meter, WorkMemBytes: 1}
		prof := NewProfiler()
		prof.Attach(ctx)
		scan := NewSeqScan(ctx, probe, "p")
		var right Iterator = scan
		if hide {
			right = opaque{scan}
		}
		j, err := NewHashJoin(ctx, ctx.Instrument("build", NewSeqScan(ctx, build, "b")), ctx.Instrument("probe", right), "b.name", "p.name")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Count(ctx.Instrument("join", j)); err != nil {
			t.Fatal(err)
		}
		stats := map[string]OpStats{}
		for _, node := range []string{"build", "probe", "join"} {
			stats[node] = *prof.Stats(node)
		}
		return stats, scan.gate != nil
	}
	got, gated := run(false)
	want, _ := run(true)
	if !gated {
		t.Fatal("the profiled join did not gate its probe scan")
	}
	for node, w := range want {
		if got[node] != w {
			t.Errorf("%s: actuals %+v gated, %+v ungated", node, got[node], w)
		}
	}
	if want["probe"].Rows != 3000 {
		t.Errorf("the probe scan produced %d rows, want 3000", want["probe"].Rows)
	}
}

// TestGatedStringKeyComparesTheString forces what 64-bit string hashes make
// too rare to meet by chance: a probe key whose hash is a build key's. The
// gated scan must compare the strings, which differ, and skip the record.
func TestGatedStringKeyComparesTheString(t *testing.T) {
	e := newEnv(t)
	schema := tuple.NewSchema(tuple.Column{Name: "name", Kind: tuple.KindString})
	load := func(name string, keys ...string) *catalog.Table {
		tb, err := e.cat.CreateTable(name, schema)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			rec, err := tuple.EncodeRow(nil, schema, tuple.Row{tuple.NewString(k)})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tb.Heap.Insert(rec); err != nil {
				t.Fatal(err)
			}
		}
		return tb
	}
	build, probe := load("b", "apple"), load("p", "pear")
	scan := NewSeqScan(e.ctx, probe, "p")
	j, err := NewHashJoin(e.ctx, NewSeqScan(e.ctx, build, "b"), scan, "b.name", "p.name")
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Open(); err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	// Give "apple" the hash of "pear", in the slot "pear" hashes to.
	k := keyImage(tuple.KindString, tuple.NewString("pear"))
	j.table.keys[0] = k
	clear(j.table.slots)
	j.table.slots[(k*0x9E3779B97F4A7C15)>>j.table.shift] = 1
	if row, ok, err := j.Next(); ok || err != nil {
		t.Fatalf("Next: %v, %v, %v; want no match: the strings differ", row, ok, err)
	}
	if scan.gate == nil || scan.gate.match != 0 {
		t.Fatal("the probe scan was not gated, or kept a match")
	}
}

// TestAsPrunerAndAsGatedAgreeWithTheInterfaces: the type switches that stand
// in for the assertions answer what the assertions answer, for every
// iterator the executor defines.
func TestAsPrunerAndAsGatedAgreeWithTheInterfaces(t *testing.T) {
	for _, it := range []Iterator{(*SeqScan)(nil), (*IndexScan)(nil), (*ValuesScan)(nil), (*Filter)(nil),
		(*ColFilter)(nil), (*Project)(nil), (*HashJoin)(nil), (*IndexNLJoin)(nil), (*CrossJoin)(nil), (*profiledIter)(nil)} {
		_, isPruner := it.(Pruner)
		_, isGated := it.(Gated)
		if _, ok := asPruner(it); ok != isPruner {
			t.Errorf("%T: asPruner says %v, the Pruner assertion %v", it, ok, isPruner)
		}
		if _, ok := asGated(it); ok != isGated {
			t.Errorf("%T: asGated says %v, the Gated assertion %v", it, ok, isGated)
		}
	}
}
