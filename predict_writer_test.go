package specdb

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"specdb/internal/core"
	"specdb/internal/plan"
	"specdb/internal/sim"
	"specdb/internal/tpch"
	"specdb/internal/trace"
	"specdb/internal/tuple"
)

// predictOnlySession opens a session whose speculator issues predicted finals
// and nothing else. Of everything speculation keeps, only the answer cache
// follows base-table writes (a speculative materialization is not maintained
// when its base relation grows), so a session that also materializes would
// return rows that predate a write on the executed path too — whatever the
// answer cache does.
func predictOnlySession(db *DB, name string) *Session {
	c := core.DefaultConfig()
	c.Ops = core.OpSet{}
	c.NamePrefix = name
	c.Predictor, c.Answers = db.pred, db.answers
	sp := core.NewSpeculator(db.eng, core.NewLearner(core.DefaultLearnerConfig()), c)
	return &Session{db: db, ctx: context.Background(), clock: sim.NewClock(), sp: sp}
}

// TestServedGoUnderConcurrentWrites is the soundness of instant GO under
// concurrency (DESIGN.md §14): sessions with a trained predictor replay their
// traces side by side while a writer keeps inserting one and the same batch of
// marker rows into lineitem. Every GO is checked against a fresh execution of
// its query taken with the writer paused. The batches are identical, so each
// adds the same rows to a query's answer: with k inserts done at the pause,
// the answer after j of them is the fresh one less (k−j) times what one more
// insert adds, which the check measures by making that insert. A GO that
// started after insert j returned must carry at least j batches' worth and one
// that returned before insert j started at most j−1; with no insert in
// between it must equal the fresh execution.
func TestServedGoUnderConcurrentWrites(t *testing.T) {
	if testing.Short() {
		t.Skip("loads a full named scale")
	}
	const users = 3
	traces := make([]*trace.Trace, users)
	for i := range traces {
		cfg := trace.DefaultGenConfig(fmt.Sprintf("user%02d", i+1), 7+uint64(i)*1000003)
		cfg.NumQueries, cfg.NumTasks = 14, 2
		var err error
		if traces[i], err = trace.Generate(tpch.Vocabulary(), cfg); err != nil {
			t.Fatal(err)
		}
	}
	db := Open(Options{BufferPoolPages: 64, PoolShards: 4, PredictFinals: true})
	if err := db.LoadTPCH("100MB", 42); err != nil {
		t.Fatal(err)
	}

	// The markers copy, for each trace, the lineitem row that most of the
	// trace's answers contain: whatever the generated selections are, an
	// insert then reaches the answers of several of its queries.
	lineitem := tpch.Schemas()["lineitem"]
	var cols []string
	for _, c := range lineitem.Columns {
		cols = append(cols, "lineitem."+c.Name)
	}
	queries := make([][]trace.Query, users)
	var markers []tuple.Row
	for u, tr := range traces {
		var err error
		if queries[u], err = trace.ExtractQueries(tr); err != nil {
			t.Fatal(err)
		}
		answers := make(map[string]int) // lineitem row → queries it answers
		rows := make(map[string]tuple.Row)
		best := ""
		for _, q := range queries[u] {
			if !q.Graph.HasRelation("lineitem") {
				continue
			}
			bound, err := plan.BindGraphProjections(db.eng.Catalog, q.Graph, cols)
			if err != nil {
				t.Fatal(err)
			}
			res, err := db.eng.RunQuery(bound)
			if err != nil {
				t.Fatal(err)
			}
			inThis := make(map[string]bool)
			for _, r := range res.Rows {
				if k := fmt.Sprint(r); !inThis[k] {
					inThis[k], rows[k] = true, r
					answers[k]++
					if answers[k] > answers[best] || answers[k] == answers[best] && k < best {
						best = k
					}
				}
			}
		}
		if best != "" {
			markers = append(markers, rows[best])
		}
	}
	if len(markers) == 0 {
		t.Fatal("no trace reads lineitem")
	}

	// wmu pauses the writer; inserted counts the inserts that have returned,
	// started the ones that have begun.
	var wmu sync.Mutex
	var started, inserted atomic.Int64
	insert := func() error { // callers hold wmu
		started.Add(1)
		if err := db.eng.InsertRows("lineitem", markers); err != nil {
			return err
		}
		inserted.Add(1)
		return nil
	}
	type answer struct {
		key  uint64
		rows int64
	}
	fresh := func(q trace.Query) (answer, error) { // callers hold wmu
		bound, err := plan.BindGraphProjections(db.eng.Catalog, q.Graph, q.Projs)
		if err != nil {
			return answer{}, err
		}
		res, err := db.eng.RunQuery(bound)
		if err != nil {
			return answer{}, err
		}
		return answer{resultKey(wrapResult(res)), res.RowCount}, nil
	}

	var served, overlapped, grew atomic.Int64
	rowsBefore := make([][]int64, users) // each GO's row count before any write
	goDone := make(chan struct{}, 1)     // a GO finished; the writer may go again
	// replay drives trace u through a predict-only session. The first pass
	// only records row counts; with check set every GO is verified as
	// described above.
	replay := func(u int, check bool) error {
		name := fmt.Sprintf("user%d_check%v", u, check)
		s := predictOnlySession(db, name)
		defer s.Close()
		qi := 0
		return driveTrace(s, traces[u], func() error {
			q := queries[u][qi]
			qi++
			atLeast, gosBefore := inserted.Load(), s.Stats().PredictedGos
			res, err := s.Go()
			atMost := started.Load()
			if err != nil {
				return err
			}
			if !check {
				rowsBefore[u] = append(rowsBefore[u], res.RowCount)
				return nil
			}
			got := answer{resultKey(res), res.RowCount}
			wasServed := s.Stats().PredictedGos > gosBefore

			wmu.Lock()
			k := inserted.Load()
			want, err := fresh(q)
			var perInsert answer
			if err == nil && k > atLeast {
				// Inserts happened since the GO started: measure what one
				// adds to this query, to step back from the fresh answer.
				var next answer
				if err = insert(); err == nil {
					next, err = fresh(q)
				}
				perInsert = answer{next.key - want.key, next.rows - want.rows}
			}
			wmu.Unlock()
			if err != nil {
				return err
			}
			ok := false
			for j := atLeast; j <= atMost && !ok; j++ {
				ok = got == answer{want.key - uint64(k-j)*perInsert.key, want.rows - (k-j)*perInsert.rows}
			}
			if !ok {
				return fmt.Errorf("%s query %d (served %v): answer %+v is none of those after %d..%d inserts; fresh after %d is %+v, one insert adds %+v",
					name, q.Index, wasServed, got, atLeast, atMost, k, want, perInsert)
			}
			if wasServed {
				served.Add(1)
			}
			if atMost > atLeast {
				overlapped.Add(1)
			}
			if want.rows > rowsBefore[u][q.Index] {
				grew.Add(1)
			}
			select {
			case goDone <- struct{}{}:
			default:
			}
			return nil
		})
	}

	// Train the predictor (and warm the cache) before the first write.
	for u := range traces {
		if err := replay(u, false); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	writerErr := make(chan error, 1)
	go func() {
		// One insert per finished GO, so predictions have time to complete
		// between writes and the writes keep coming for as long as GOs do.
		for {
			select {
			case <-stop:
				writerErr <- nil
				return
			case <-goDone:
			}
			wmu.Lock()
			err := insert()
			wmu.Unlock()
			if err != nil {
				writerErr <- err
				return
			}
		}
	}()
	errs := make(chan error, users)
	for u := range traces {
		go func(u int) { errs <- replay(u, true) }(u)
	}
	for range traces {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	close(stop)
	if err := <-writerErr; err != nil {
		t.Fatal(err)
	}

	invalidated := db.eng.Metrics().Snapshot().Counters["answers.invalidated"]
	t.Logf("%d inserts; GOs served %d, overlapped by an insert %d, with markers in the answer %d; %d entries invalidated",
		inserted.Load(), served.Load(), overlapped.Load(), grew.Load(), invalidated)
	if served.Load() == 0 || grew.Load() == 0 || invalidated == 0 {
		t.Fatal("the run exercised nothing: it needs served GOs, answers the markers reach, and invalidated entries")
	}
}
