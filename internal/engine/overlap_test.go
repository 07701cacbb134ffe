package engine

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"specdb/internal/plan"
	"specdb/internal/sim"
	"specdb/internal/sql"
	"specdb/internal/storage"
)

// gatedDisk is a disk whose next Read of one chosen page stops at a gate: it
// closes entered, then waits for release.
type gatedDisk struct {
	storage.Disk
	page    atomic.Int64
	entered chan struct{}
	release chan struct{}
}

func (d *gatedDisk) Read(id storage.PageID, buf []byte) error {
	if d.page.CompareAndSwap(int64(id), 0) {
		close(d.entered)
		<-d.release
	}
	return d.Disk.Read(id, buf)
}

// hang is how long a statement that ought to be running is given before the
// test calls it blocked. It only turns a deadlock into a failure; nothing
// below waits it out on the passing path.
const hang = 20 * time.Second

// TestReadersOverlapWritersWait pins the lock modes of the statement boundary
// with one reader parked inside a disk read: other readers finish beside it,
// writers started meanwhile finish only after it, and a reader queued behind
// a waiting writer sees what the writer wrote.
func TestReadersOverlapWritersWait(t *testing.T) {
	disk := &gatedDisk{
		Disk:    storage.NewDiskManager(0),
		entered: make(chan struct{}),
		release: make(chan struct{}),
	}
	// Several shards: a miss reads the disk under its shard's lock, so the
	// readers that are to finish need pages behind other locks than the one
	// reader A parks under.
	e := build(Config{BufferPoolPages: 256, PoolShards: 8}, disk)
	hot := make([]string, 8)
	for i := range hot {
		hot[i] = fmt.Sprintf("hot%d", i)
	}
	for _, tb := range append([]string{"cold", "w"}, hot...) {
		if err := loadTable(e, tb); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.ColdStart(); err != nil {
		t.Fatal(err)
	}
	pagesOf := func(tb string) []storage.PageID {
		tab, err := e.Catalog.Table(tb)
		if err != nil {
			t.Fatal(err)
		}
		return tab.Heap.PageIDs()
	}
	gate := pagesOf("cold")[0]
	resident := ""
	for _, tb := range hot {
		clear := true
		for _, id := range pagesOf(tb) {
			clear = clear && !e.Pool.SameShard(id, gate)
		}
		if clear {
			resident = tb
			break
		}
	}
	if resident == "" {
		t.Fatal("every candidate table shares a pool shard with the gated page")
	}
	query := func(tb string) *plan.Query {
		q, err := boundQuery(e, tb)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	qCold, qHot, qW := query("cold"), query(resident), query("w")
	for _, q := range []*plan.Query{qHot, qW} { // make their pages resident
		if _, err := e.RunQuery(q); err != nil {
			t.Fatal(err)
		}
	}
	before, err := e.RunQuery(qW)
	if err != nil {
		t.Fatal(err)
	}

	// started runs fn on its own goroutine; the channel delivers its error.
	started := func(fn func() error) <-chan error {
		done := make(chan error, 1)
		go func() { done <- fn() }()
		return done
	}
	finish := func(what string, done <-chan error) {
		t.Helper()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		case <-time.After(hang):
			t.Fatalf("%s did not finish", what)
		}
	}
	var released atomic.Bool
	openGate := sync.OnceFunc(func() {
		released.Store(true)
		close(disk.release)
	})
	defer openGate() // a failure above the release must not strand reader A

	disk.page.Store(int64(gate))
	readerA := started(func() error { return resultless(e.RunQuery(qCold)) })
	select {
	case <-disk.entered:
	case <-time.After(hang):
		t.Fatal("reader A never reached its disk read")
	}

	// A holds the statement lock (shared) inside its read. Readers pass.
	finish("reader B beside the blocked reader", started(func() error { return resultless(e.RunQuery(qHot)) }))
	finish("EXPLAIN ANALYZE beside the blocked reader", started(func() error { return resultless(e.ExplainAnalyze(qHot)) }))

	// Writers wait: neither may return before the gate opened.
	afterRelease := func(fn func() error) func() error {
		return func() error {
			if err := fn(); err != nil {
				return err
			}
			if !released.Load() {
				return fmt.Errorf("finished while reader A was still inside its statement")
			}
			return nil
		}
	}
	insert := started(afterRelease(func() error {
		return e.InsertRows("w", intRows(1, func(int) (int64, int64) { return 1, 4040 }))
	}))
	// A pending writer turns new readers away; until then TryRLock succeeds.
	for e.stmtMu.TryRLock() {
		e.stmtMu.RUnlock()
		runtime.Gosched()
	}
	materialize := started(afterRelease(func() error {
		return resultless(e.Materialize("spec_m", selectionOn(resident), false))
	}))
	var behind *Result
	readerC := started(func() (err error) {
		behind, err = e.RunQuery(qW)
		return err
	})
	select {
	case err := <-insert:
		t.Fatalf("InsertRows returned (%v) while a reader held the statement lock", err)
	case err := <-materialize:
		t.Fatalf("Materialize returned (%v) while a reader held the statement lock", err)
	case err := <-readerC:
		t.Fatalf("a reader queued behind a waiting writer returned (%v) before it", err)
	default:
	}

	openGate()
	finish("reader A", readerA)
	finish("InsertRows", insert)
	finish("Materialize", materialize)
	finish("reader C", readerC)
	if behind.RowCount != before.RowCount+1 {
		t.Fatalf("reader behind the writer saw %d rows, want %d", behind.RowCount, before.RowCount+1)
	}
}

// readerMix is the fixed statement mix of one reader in the exactness tests.
type readerMix struct {
	join, sel *plan.Query
}

func newReaderMix(t *testing.T, e *Engine) readerMix {
	t.Helper()
	bind := func(src string) *plan.Query {
		stmt, err := sql.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		q, err := plan.Bind(e.Catalog, stmt.(*sql.SelectStmt))
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	return readerMix{
		join: bind("SELECT * FROM R, S WHERE R.a = S.a AND R.c < 1 AND S.b < 1"),
		sel:  bind("SELECT * FROM W WHERE W.d > 1500"),
	}
}

// observed is everything a reader's pass reports.
type observed struct {
	work     [3]sim.Work
	duration [3]sim.Duration
	analyzed string
	rows     [2]string
}

func (m readerMix) pass(e *Engine) (observed, error) {
	var o observed
	for i, run := range []func() (*Result, error){
		func() (*Result, error) { return e.RunQuery(m.join) },
		func() (*Result, error) { return e.RunQuery(m.sel) },
		func() (*Result, error) { return e.ExplainAnalyze(m.join) },
	} {
		res, err := run()
		if err != nil {
			return o, err
		}
		o.work[i], o.duration[i] = res.Work, res.Duration
		if i < 2 {
			o.rows[i] = fmt.Sprint(res.Rows)
		} else {
			o.analyzed = res.Analyzed
		}
	}
	return o, nil
}

// writerPass is the exclusive side: a materialization and an index, made and
// dropped, on tables no reader touches. It returns the work of the two
// measured statements.
func writerPass(e *Engine) ([2]sim.Work, error) {
	var w [2]sim.Work
	m, err := e.Materialize("spec_side_m", selectionOn("side"), false)
	if err != nil {
		return w, err
	}
	if err := e.DropTable("spec_side_m"); err != nil {
		return w, err
	}
	ix, err := e.CreateIndex("side", "b", nil)
	if err != nil {
		return w, err
	}
	w[0], w[1] = m.Work, ix.Work
	return w, e.DropIndex("side", "b")
}

// TestMeteringExactUnderOverlap: what a statement reports is its own work,
// not its neighbours'. With a pool that holds the data every number of every
// statement — readers' Work, Duration and EXPLAIN ANALYZE tree, writers'
// Work — equals its solo value while readers really overlap each other and
// interleave with an exclusive writer.
func TestMeteringExactUnderOverlap(t *testing.T) {
	e := newTestEngine(t, 2000, Config{BufferPoolPages: 512, PoolShards: 4})
	if err := loadRows(e, "side", 2000); err != nil {
		t.Fatal(err)
	}
	mix := newReaderMix(t, e)
	var solo observed
	var soloW [2]sim.Work
	for i := 0; i < 2; i++ { // the second pass is warm, as every later one is
		var err error
		if solo, err = mix.pass(e); err != nil {
			t.Fatal(err)
		}
		if soloW, err = writerPass(e); err != nil {
			t.Fatal(err)
		}
	}
	if solo.work[0].Tuples == 0 || solo.analyzed == "" || soloW[0].Tuples == 0 || soloW[1].Tuples == 0 {
		t.Fatalf("solo pass measured nothing: %+v %+v", solo, soloW)
	}

	const readers, rounds = 4, 15
	var wg sync.WaitGroup
	errs := make(chan error, readers+1)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				got, err := mix.pass(e)
				if err == nil && got != solo {
					err = fmt.Errorf("reader %d round %d reported\n%+v\nsolo\n%+v", r, i, got, solo)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			got, err := writerPass(e)
			if err == nil && got != soloW {
				err = fmt.Errorf("writer round %d did %+v, solo %+v", i, got, soloW)
			}
			if err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestMeteringUnderOverlapSmallPool pins where determinism ends. With a pool
// smaller than the data, which reader misses a page depends on how their
// fetches interleave in the LRU, so PageReads is each statement's own but not
// reproducible; the answer and Tuples still are. And the misses are conserved:
// every one the pool took was charged to exactly one statement.
func TestMeteringUnderOverlapSmallPool(t *testing.T) {
	e := newTestEngine(t, 20000, Config{BufferPoolPages: 16, PoolShards: 2})
	if n := e.TotalDataPages(); n <= 2*e.Pool.Capacity() {
		t.Fatalf("%d data pages do not overflow a %d-frame pool", n, e.Pool.Capacity())
	}
	mix := newReaderMix(t, e)
	solo, err := mix.pass(e)
	if err != nil {
		t.Fatal(err)
	}
	if solo.work[0].PageReads == 0 {
		t.Fatal("solo pass read no page: the pool is not too small")
	}

	const readers, rounds = 4, 6
	missesBefore := e.Pool.Stats().Misses
	var charged atomic.Int64
	var differed atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				got, err := mix.pass(e)
				if err != nil {
					errs <- err
					return
				}
				if got.rows != solo.rows {
					errs <- fmt.Errorf("reader %d round %d: answer differs from solo", r, i)
					return
				}
				for k, w := range got.work {
					if w.Tuples != solo.work[k].Tuples || w.PageWrites != solo.work[k].PageWrites {
						errs <- fmt.Errorf("reader %d round %d statement %d did %+v, solo %+v", r, i, k, w, solo.work[k])
						return
					}
					if w.PageReads != solo.work[k].PageReads {
						differed.Store(true)
					}
					charged.Add(w.PageReads)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if missed := e.Pool.Stats().Misses - missesBefore; charged.Load() != missed {
		t.Fatalf("statements were charged %d page reads, the pool missed %d times", charged.Load(), missed)
	}
	t.Logf("PageReads differed from solo under overlap: %v", differed.Load())
}

// TestColdStartBesideQueries: ColdStart is a statement, so it waits for
// running queries (whose pinned pages would fail EvictAll half way through
// the shards) and they for it.
func TestColdStartBesideQueries(t *testing.T) {
	e := newTestEngine(t, 2000, Config{BufferPoolPages: 64, PoolShards: 4})
	mix := newReaderMix(t, e)
	statements := e.Metrics().Counter("engine.statements").Value()
	const rounds = 60
	done := make(chan error, 1)
	go func() {
		for i := 0; i < rounds; i++ {
			if err := e.ColdStart(); err != nil {
				done <- fmt.Errorf("ColdStart %d: %w", i, err)
				return
			}
		}
		done <- nil
	}()
	queries := int64(0)
	for running := true; running || queries < rounds; queries++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			running = false
		default:
		}
		if _, err := e.RunQuery(mix.join); err != nil {
			t.Fatalf("query %d beside ColdStart: %v", queries, err)
		}
	}
	if got := e.Metrics().Counter("engine.statements").Value() - statements; got != queries {
		t.Fatalf("engine.statements moved by %d over %d queries: ColdStart is unmeasured", got, queries)
	}
}

// TestConcurrentStageKeepsHalfThePool: staging commits nothing and is still
// exclusive, because its budget is read and then spent — two Stage calls at
// once may never pin more than half the pool between them.
func TestConcurrentStageKeepsHalfThePool(t *testing.T) {
	e := New(Config{BufferPoolPages: 16, PoolShards: 2})
	for _, tb := range []string{"s1", "s2"} {
		if err := loadRows(e, tb, 10000); err != nil {
			t.Fatal(err)
		}
		if tab, _ := e.Catalog.Table(tb); tab.NumPages() < e.Pool.Capacity()/2 {
			t.Fatalf("%s has %d pages, fewer than the staging budget", tb, tab.NumPages())
		}
	}
	half := e.Pool.Capacity() / 2
	for round := 0; round < 20; round++ {
		var wg sync.WaitGroup
		var staged atomic.Int64
		for _, tb := range []string{"s1", "s2"} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := e.Stage(tb)
				if err != nil {
					t.Error(err)
					return
				}
				staged.Add(res.RowCount)
			}()
		}
		wg.Wait()
		if got := e.Pool.StagedCount(); got > half || int(staged.Load()) != got {
			t.Fatalf("round %d: %d pages staged (results say %d), budget %d", round, got, staged.Load(), half)
		}
		for _, tb := range []string{"s1", "s2"} {
			if err := e.Unstage(tb); err != nil {
				t.Fatal(err)
			}
		}
	}
}
