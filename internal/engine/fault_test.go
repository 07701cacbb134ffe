package engine

import (
	"strings"
	"testing"

	"specdb/internal/fault"
	"specdb/internal/qgraph"
	"specdb/internal/tuple"
)

// TestDegradedReplanAroundBadView: when a forced materialized view turns out
// to be unreadable at execution time, the query transparently replans against
// base tables and still answers correctly.
func TestDegradedReplanAroundBadView(t *testing.T) {
	e := newTestEngine(t, 400, Config{})
	const q = "SELECT * FROM R WHERE R.c > 10"
	base, err := e.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	g := qgraph.SelectionSubgraph(qgraph.Selection{
		Rel: "R", Col: "c", Op: tuple.CmpGT, Const: tuple.NewInt(10),
	})
	if _, err := e.Materialize("spec_bad", g, true); err != nil {
		t.Fatal(err)
	}
	if err := e.ColdStart(); err != nil {
		t.Fatal(err)
	}
	// Sabotage: free the view's heap pages on disk, so the forced rewrite
	// plans a scan of a table that can no longer be read.
	vt, err := e.Catalog.Table("spec_bad")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range vt.Heap.PageIDs() {
		if err := e.Disk.Free(id); err != nil {
			t.Fatal(err)
		}
	}
	res, err := e.Exec(q)
	if err != nil {
		t.Fatalf("query not replanned around the bad view: %v", err)
	}
	if res.RowCount != base.RowCount {
		t.Fatalf("degraded run returned %d rows, fault-free %d", res.RowCount, base.RowCount)
	}
	if v := e.Metrics().Counter("engine.replans").Value(); v == 0 {
		t.Fatal("replan not counted")
	}
	// A query that never touches derived objects is unaffected.
	if _, err := e.Exec("SELECT * FROM S WHERE S.a > 0"); err != nil {
		t.Fatal(err)
	}
}

// TestPanicRecoveryAtStatementBoundary: a panic below a statement entry point
// becomes an error with the stack preserved in the panic log.
func TestPanicRecoveryAtStatementBoundary(t *testing.T) {
	e := newTestEngine(t, 10, Config{})
	err := e.statement("TestOp", "", readsOnly, func(*stmt) error {
		panic("simulated internal bug")
	})
	if err == nil {
		t.Fatal("panic not converted to an error")
	}
	if !strings.Contains(err.Error(), "internal error") || !strings.Contains(err.Error(), "simulated internal bug") {
		t.Fatalf("error %q does not describe the recovered panic", err)
	}
	if e.PanicLog().Total() != 1 {
		t.Fatalf("panic log total %d, want 1", e.PanicLog().Total())
	}
	recs := e.PanicLog().Records()
	if len(recs) != 1 || recs[0].Op != "TestOp" || !strings.Contains(recs[0].Stack, "fault_test") {
		t.Fatalf("panic record %+v lacks op or stack", recs[0])
	}
	if v := e.Metrics().Counter("recovered_panics").Value(); v != 1 {
		t.Fatalf("recovered_panics = %d, want 1", v)
	}
	// The engine keeps serving statements afterwards: the panicking body held
	// the lock shared, and a writer needs it back whole.
	if _, err := e.Exec("SELECT * FROM R WHERE R.c > 10"); err != nil {
		t.Fatalf("engine unusable after recovered panic: %v", err)
	}
	if _, err := e.CreateIndex("R", "c", nil); err != nil {
		t.Fatalf("writer blocked or failed after a recovered shared panic: %v", err)
	}
}

// TestFaultConfigThreadsThroughEngine: an engine built with fault injection
// still answers queries correctly, and the injector is observable.
func TestFaultConfigThreadsThroughEngine(t *testing.T) {
	clean := newTestEngine(t, 200, Config{})
	base, err := clean.Exec("SELECT * FROM R WHERE R.c > 10")
	if err != nil {
		t.Fatal(err)
	}
	faulty := newTestEngine(t, 200, Config{Fault: fault.Config{
		Seed: 13, ReadErrorRate: 0.05, WriteErrorRate: 0.05, CorruptionRate: 0.02, FrameExhaustionRate: 0.05,
	}})
	if faulty.FaultInjector() == nil {
		t.Fatal("fault config did not build an injector")
	}
	res, err := faulty.Exec("SELECT * FROM R WHERE R.c > 10")
	if err != nil {
		t.Fatalf("query failed under injected faults: %v", err)
	}
	if res.RowCount != base.RowCount {
		t.Fatalf("faulty engine returned %d rows, clean %d", res.RowCount, base.RowCount)
	}
	if clean.FaultInjector() != nil {
		t.Fatal("clean engine grew an injector")
	}
}
