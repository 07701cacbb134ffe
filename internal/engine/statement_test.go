package engine

import (
	"fmt"
	"maps"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"specdb/internal/plan"
	"specdb/internal/qgraph"
	"specdb/internal/sim"
	"specdb/internal/tuple"
)

// boundaryOp is one entry point that runs its body through statement.
type boundaryOp struct {
	// name is the op the panic log files the entry point under.
	name string
	// prep makes run valid on table tb (the index DropIndex drops).
	prep func(e *Engine, tb string) error
	// run invokes the entry point on tb, a loaded and analyzed table (a, b).
	run func(e *Engine, tb string) error
	// touched is the suffix of the table the statement names when that is not
	// tb itself (a materialization, a new table).
	touched string
	// commits and bumps are what a success owes the boundary.
	commits, bumps bool
	// fail invokes the entry point so that its body returns an error; gone is
	// a query bound to a table that has vanished since.
	fail func(e *Engine, gone *plan.Query) error
	// commitPanicOnly marks a body with nothing in it that can panic; only its
	// commit can, so the panic case needs a durable engine.
	commitPanicOnly bool
	// panicFree marks a statement with neither: no table to break, no commit.
	panicFree bool
}

func selectionOn(tb string) *qgraph.Graph {
	return qgraph.SelectionSubgraph(qgraph.Selection{
		Rel: tb, Col: "a", Op: tuple.CmpLT, Const: tuple.NewInt(5),
	})
}

// boundQuery binds a selection on tb; the entry points that take a bound
// query are handed one.
func boundQuery(e *Engine, tb string) (*plan.Query, error) {
	return plan.BindGraph(e.Catalog, selectionOn(tb))
}

// vanishedQuery binds a query and then removes its table behind the engine's
// back, so an entry point handed the query fails at planning.
func vanishedQuery(e *Engine) (*plan.Query, error) {
	if _, err := e.CreateTable("gone", intSchema("a", "b")); err != nil {
		return nil, err
	}
	q, err := boundQuery(e, "gone")
	if err != nil {
		return nil, err
	}
	return q, e.Catalog.DropTable("gone")
}

func resultless(_ *Result, err error) error { return err }

// boundaryOps enumerates the sixteen entry points of the statement boundary.
func boundaryOps() []boundaryOp {
	query := func(run func(e *Engine, q *plan.Query) error) func(e *Engine, tb string) error {
		return func(e *Engine, tb string) error {
			q, err := boundQuery(e, tb)
			if err != nil {
				return err
			}
			return run(e, q)
		}
	}
	runQuery := func(e *Engine, q *plan.Query) error { return resultless(e.RunQuery(q)) }
	explainAnalyze := func(e *Engine, q *plan.Query) error { return resultless(e.ExplainAnalyze(q)) }
	return []boundaryOp{
		{name: "RunQuery", run: query(runQuery), fail: runQuery},
		{name: "ExplainAnalyze", run: query(explainAnalyze), fail: explainAnalyze},
		{name: "Materialize", touched: "_m", commits: true,
			run: func(e *Engine, tb string) error {
				return resultless(e.Materialize(tb+"_m", selectionOn(tb), false))
			},
			fail: func(e *Engine, _ *plan.Query) error {
				return resultless(e.Materialize("base", selectionOn("base"), false))
			}},
		{name: "CreateIndex", commits: true,
			run:  func(e *Engine, tb string) error { return resultless(e.CreateIndex(tb, "a", nil)) },
			fail: func(e *Engine, _ *plan.Query) error { return resultless(e.CreateIndex("base", "nope", nil)) }},
		{name: "DropIndex", commits: true,
			prep: func(e *Engine, tb string) error { return resultless(e.CreateIndex(tb, "b", nil)) },
			run:  func(e *Engine, tb string) error { return e.DropIndex(tb, "b") },
			fail: func(e *Engine, _ *plan.Query) error { return e.DropIndex("base", "nope") }},
		{name: "DropDetachedIndex", commits: true,
			prep: func(e *Engine, tb string) error {
				if err := resultless(e.CreateIndex(tb, "a", nil)); err != nil {
					return err
				}
				return resultless(e.CreateIndex(tb, "b", nil))
			},
			run: func(e *Engine, tb string) error {
				t, err := e.Catalog.Table(tb)
				if err != nil {
					return err
				}
				idx := t.Index("b")
				t.RemoveIndex("b")
				return e.DropDetachedIndex(idx)
			},
			fail: dropIndexPinned},
		{name: "CreateHistogram", commits: true,
			run:  func(e *Engine, tb string) error { return resultless(e.CreateHistogram(tb, "a", nil)) },
			fail: func(e *Engine, _ *plan.Query) error { return resultless(e.CreateHistogram("nope", "a", nil)) }},
		{name: "DropHistogram", commits: true, commitPanicOnly: true,
			run:  func(e *Engine, tb string) error { return e.DropHistogram(tb, "a") },
			fail: func(e *Engine, _ *plan.Query) error { return e.DropHistogram("nope", "a") }},
		{name: "Stage",
			run:  func(e *Engine, tb string) error { return resultless(e.Stage(tb)) },
			fail: func(e *Engine, _ *plan.Query) error { return resultless(e.Stage("nope")) }},
		{name: "Unstage",
			run:  func(e *Engine, tb string) error { return e.Unstage(tb) },
			fail: func(e *Engine, _ *plan.Query) error { return e.Unstage("nope") }},
		{name: "DropTable", commits: true, bumps: true,
			run:  func(e *Engine, tb string) error { return e.DropTable(tb) },
			fail: func(e *Engine, _ *plan.Query) error { return e.DropTable("nope") }},
		{name: "CreateTable", touched: "_new", commits: true, bumps: true, commitPanicOnly: true,
			run: func(e *Engine, tb string) error {
				_, err := e.CreateTable(tb+"_new", intSchema("a", "b"))
				return err
			},
			fail: func(e *Engine, _ *plan.Query) error {
				_, err := e.CreateTable("base", intSchema("a", "b"))
				return err
			}},
		{name: "InsertRows", commits: true, bumps: true,
			run: func(e *Engine, tb string) error {
				return e.InsertRows(tb, intRows(3, func(i int) (int64, int64) { return int64(i), 0 }))
			},
			fail: func(e *Engine, _ *plan.Query) error { return e.InsertRows("nope", nil) }},
		{name: "InsertGenerated", commits: true, bumps: true,
			run: func(e *Engine, tb string) error {
				return e.InsertGenerated(tb, 3, nil, func(i int, row tuple.Row) { row[0], row[1] = tuple.NewInt(int64(i)), tuple.NewInt(0) })
			},
			fail: func(e *Engine, _ *plan.Query) error {
				return e.InsertGenerated("nope", 1, nil, func(int, tuple.Row) {})
			}},
		{name: "Analyze", commits: true,
			run:  func(e *Engine, tb string) error { return e.Analyze(tb, nil) },
			fail: func(e *Engine, _ *plan.Query) error { return e.Analyze("nope", nil) }},
		{name: "ColdStart", panicFree: true,
			run:  func(e *Engine, _ string) error { return e.ColdStart() },
			fail: coldStartPinned},
	}
}

// coldStartPinned runs ColdStart while a page of base is pinned, which is the
// one thing that makes EvictAll fail.
func coldStartPinned(e *Engine, _ *plan.Query) error {
	t, err := e.Catalog.Table("base")
	if err != nil {
		return err
	}
	id := t.Heap.PageIDs()[0]
	if _, err := e.Pool.Get(id); err != nil {
		return err
	}
	defer e.Pool.Unpin(id, false)
	return e.ColdStart()
}

// dropIndexPinned drops base's index on a while the first page the drop
// would free is pinned, so it fails having freed nothing.
func dropIndexPinned(e *Engine, _ *plan.Query) error {
	t, err := e.Catalog.Table("base")
	if err != nil {
		return err
	}
	idx := t.Index("a")
	id := idx.Tree.PageIDs()[0]
	if _, err := e.Pool.Get(id); err != nil {
		return err
	}
	defer e.Pool.Unpin(id, false)
	return e.DropDetachedIndex(idx)
}

// loadTable creates, loads and analyzes a two-column table of 40 rows.
func loadTable(e *Engine, name string) error { return loadRows(e, name, 40) }

// loadRows creates, loads and analyzes a two-column table of n rows
// (a = i mod 10, b = i).
func loadRows(e *Engine, name string, n int) error {
	if _, err := e.CreateTable(name, intSchema("a", "b")); err != nil {
		return err
	}
	if err := e.InsertRows(name, intRows(n, func(i int) (int64, int64) { return int64(i % 10), int64(i) })); err != nil {
		return err
	}
	return e.Analyze(name, nil)
}

// boundaryState is what the boundary may move: the commit count and the data
// versions.
type boundaryState struct {
	seq      int64
	versions map[string]uint64
}

func (s boundaryState) equal(o boundaryState) bool {
	return s.seq == o.seq && maps.Equal(s.versions, o.versions)
}

func observe(e *Engine, names ...string) boundaryState {
	return boundaryState{seq: e.AppliedSeq(), versions: e.DataVersions(names)}
}

// TestStatementBoundary drives every entry point through success on a durable
// name, success on a volatile one, a failing body and a panicking body, on an
// in-memory and on a durable engine, and checks what the boundary owns: the
// commit (AppliedSeq), the version bump, the recovery and the lock.
func TestStatementBoundary(t *testing.T) {
	for _, kind := range []string{"memory", "durable"} {
		for _, op := range boundaryOps() {
			t.Run(kind+"/"+op.name, func(t *testing.T) {
				cfg := Config{BufferPoolPages: 128}
				if kind == "durable" {
					cfg.Storage.Path = filepath.Join(t.TempDir(), "db")
				}
				e, err := Open(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer func() {
					if err := e.Close(); err != nil {
						t.Errorf("close: %v", err)
					}
				}()
				// spec_broken has no heap: whatever touches its pages panics. It
				// is volatile, so commits of other tables do not serialize it.
				if _, err := e.Catalog.RestoreTable("spec_broken", intSchema("a", "b"), nil); err != nil {
					t.Fatal(err)
				}
				if _, err := e.Catalog.AddIndex("spec_broken", "b", nil); err != nil {
					t.Fatal(err)
				}
				for _, tb := range []string{"base", "spec_vol"} {
					if err := loadTable(e, tb); err != nil {
						t.Fatal(err)
					}
					if op.prep != nil {
						if err := op.prep(e, tb); err != nil {
							t.Fatal(err)
						}
					}
				}
				free := func(when string) {
					t.Helper()
					if !e.stmtMu.TryLock() {
						t.Fatalf("%s: statement lock still held", when)
					}
					e.stmtMu.Unlock()
				}

				for _, tb := range []string{"base", "spec_vol"} {
					touched := tb + op.touched
					before := observe(e, touched)
					if err := op.run(e, tb); err != nil {
						t.Fatalf("%s: %v", tb, err)
					}
					after := observe(e, touched)
					var wantSeq int64
					if op.commits && e.Durable() && tb == "base" {
						wantSeq = 1
					}
					if got := after.seq - before.seq; got != wantSeq {
						t.Errorf("%s: %d commits, want %d", tb, got, wantSeq)
					}
					var wantBump uint64
					if op.bumps {
						wantBump = 1
					}
					if got := after.versions[touched] - before.versions[touched]; got != wantBump {
						t.Errorf("%s: data version moved by %d, want %d", tb, got, wantBump)
					}
					free("after success on " + tb)
				}

				// Whatever the success cases left, the failing and panicking
				// cases need a table called base.
				if !e.Catalog.HasTable("base") {
					if err := loadTable(e, "base"); err != nil {
						t.Fatal(err)
					}
				}
				gone, err := vanishedQuery(e)
				if err != nil {
					t.Fatal(err)
				}
				watched := []string{"base", "nope", "gone", "spec_broken"}
				before := observe(e, watched...)
				if err := op.fail(e, gone); err == nil {
					t.Fatal("failing body returned no error")
				} else if strings.Contains(err.Error(), "internal error") {
					t.Fatalf("failing body panicked: %v", err)
				}
				if after := observe(e, watched...); !after.equal(before) {
					t.Errorf("failing body committed or bumped: %+v → %+v", before, after)
				}
				free("after a failing body")

				if op.panicFree {
					return
				}
				panics := e.PanicLog().Total()
				target := "spec_broken"
				if op.commitPanicOnly {
					if !e.Durable() {
						return // nothing in the body can panic, and in memory nothing commits
					}
					target = "again"
					if err := loadTable(e, target); err != nil {
						t.Fatal(err)
					}
					e.SetProfileSource(func() ([]byte, error) { panic("profile exporter bug") })
					defer e.SetProfileSource(nil) // before Close commits
				}
				before = observe(e, target+op.touched)
				err = op.run(e, target)
				if err == nil || !strings.Contains(err.Error(), "internal error") {
					t.Fatalf("panicking statement returned %v, want an internal error", err)
				}
				if got := e.PanicLog().Total() - panics; got != 1 {
					t.Fatalf("%d panics logged, want 1", got)
				}
				recs := e.PanicLog().Records()
				if last := recs[len(recs)-1]; last.Op != op.name {
					t.Errorf("panic filed under %q, want %q", last.Op, op.name)
				}
				if after := observe(e, target+op.touched); !after.equal(before) {
					t.Errorf("panicking statement committed or bumped: %+v → %+v", before, after)
				}
				free("after a panic")
				q, err := boundQuery(e, "base")
				if err == nil {
					err = resultless(e.RunQuery(q))
				}
				if err != nil {
					t.Fatalf("engine unusable after a recovered panic: %v", err)
				}
			})
		}
	}
}

// TestUnmeasuredMutatorsStayOutOfMeasuredWindows: on a durable engine a
// mutator's commit flushes dirty pages and charges the shared meter, so it
// must serialize with measured statements like everything else. Sessions loop
// CreateTable, DropHistogram, Unstage and InsertRows beside one that repeats
// the same query; every run's Work equals the query's solo value.
func TestUnmeasuredMutatorsStayOutOfMeasuredWindows(t *testing.T) {
	// A small checkpoint threshold makes commits fold the WAL often, which
	// charges page writes to the shared meter from inside the commit.
	e, err := Open(Config{BufferPoolPages: 256, Storage: StorageConfig{
		Path: filepath.Join(t.TempDir(), "db"), CheckpointBytes: 8 << 10,
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := e.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	for _, tb := range []string{"queried", "side"} {
		if err := loadTable(e, tb); err != nil {
			t.Fatal(err)
		}
	}
	q, err := boundQuery(e, "queried")
	if err != nil {
		t.Fatal(err)
	}
	var solo sim.Work
	for i := 0; i < 2; i++ { // the second run is warm, as every later one is
		res, err := e.RunQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		solo = res.Work
	}

	const rounds = 40
	mutators := []func(i int) error{
		func(i int) error {
			_, err := e.CreateTable(fmt.Sprintf("made_%d", i), intSchema("a", "b"))
			return err
		},
		func(i int) error { return e.DropHistogram("side", "a") },
		func(i int) error { return e.Unstage("side") },
		func(i int) error {
			return e.InsertRows("side", intRows(50, func(j int) (int64, int64) { return int64(j), int64(i) }))
		},
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(mutators))
	for _, m := range mutators {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := m(i); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for running, runs := true, 0; running || runs < rounds; runs++ {
		select {
		case <-done:
			running = false
		default:
		}
		res, err := e.RunQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Work != solo {
			t.Fatalf("run %d beside the mutators did %+v, solo %+v", runs, res.Work, solo)
		}
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
