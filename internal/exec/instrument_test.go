package exec

import (
	"testing"
)

// TestProfilerAttributesWork runs an instrumented scan and checks that the
// profiler records row counts and the meter delta of the wrapped subtree,
// without charging any extra work itself.
func TestProfilerAttributesWork(t *testing.T) {
	e := newEnv(t)
	tb := e.loadEmployees(t, 100)
	node := "scan-node" // any comparable key works; plan uses Node pointers

	prof := NewProfiler()
	prof.Attach(e.ctx)
	bare := e.meter.Snapshot()

	it := e.ctx.Instrument(node, NewSeqScan(e.ctx, tb, "employee"))
	if _, ok := it.(*profiledIter); !ok {
		t.Fatalf("Instrument returned %T, want *profiledIter", it)
	}
	n, err := Count(it)
	if err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Fatalf("counted %d rows", n)
	}

	st := prof.Stats(node)
	if st == nil {
		t.Fatal("no stats recorded for node")
	}
	if st.Rows != 100 || st.Opens != 1 {
		t.Fatalf("stats %+v, want rows=100 opens=1", st)
	}
	// Inclusive attribution: the profiled subtree saw exactly the work the
	// meter accumulated during the run — instrumentation charged nothing.
	after := e.meter.Snapshot()
	if got, want := st.Work.Tuples, after.Tuples-bare.Tuples; got != want {
		t.Fatalf("attributed %d tuples, meter moved %d", got, want)
	}
	if got, want := st.Work.PageReads, after.PageReads-bare.PageReads; got != want {
		t.Fatalf("attributed %d reads, meter moved %d", got, want)
	}

	// Unknown nodes report nil — the EXPLAIN ANALYZE "fused" rendering path.
	if prof.Stats("never-built") != nil {
		t.Fatal("stats for an unbuilt node should be nil")
	}
}

// TestInstrumentWithoutObserver is the bare-execution path: no Observe hook
// means Instrument is a passthrough.
func TestInstrumentWithoutObserver(t *testing.T) {
	e := newEnv(t)
	tb := e.loadEmployees(t, 5)
	scan := NewSeqScan(e.ctx, tb, "")
	if got := e.ctx.Instrument("n", scan); got != Iterator(scan) {
		t.Fatalf("Instrument without observer returned %T, want the iterator unchanged", got)
	}
}

// TestProfilerReopenCounts pins Opens accounting across iterator reuse (the
// inner side of a nested-loop join is re-opened per outer row).
func TestProfilerReopenCounts(t *testing.T) {
	e := newEnv(t)
	tb := e.loadEmployees(t, 3)
	prof := NewProfiler()
	prof.Attach(e.ctx)
	it := e.ctx.Instrument("k", NewSeqScan(e.ctx, tb, ""))
	for i := 0; i < 4; i++ {
		if _, err := Collect(it); err != nil { // Collect opens and closes
			t.Fatal(err)
		}
	}
	st := prof.Stats("k")
	if st.Opens != 4 {
		t.Fatalf("opens = %d, want 4", st.Opens)
	}
	if st.Rows != 12 {
		t.Fatalf("rows = %d, want 12 across 4 runs", st.Rows)
	}
}
