package specdb

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"specdb/internal/core"
)

// tableSet snapshots the catalog's table names.
func tableSet(db *DB) map[string]bool {
	out := make(map[string]bool)
	for _, n := range db.Tables() {
		out[n] = true
	}
	return out
}

// newTables returns catalog tables present now but not in before.
func newTables(db *DB, before map[string]bool) []string {
	var out []string
	for _, n := range db.Tables() {
		if !before[n] {
			out = append(out, n)
		}
	}
	return out
}

func TestSessionManagerLifecycle(t *testing.T) {
	db := getDB(t)
	m := db.NewSessionManager()

	s1 := m.Open(SessionConfig{})
	s2 := m.Open(SessionConfig{})
	if got := m.OpenSessions(); got != 2 {
		t.Fatalf("OpenSessions = %d, want 2", got)
	}
	// All sessions train one shared multi-user profile.
	if s1.sp.Learner() != m.learner || s2.sp.Learner() != m.learner {
		t.Fatal("sessions do not share the manager's profile")
	}
	// ...but speculative objects are namespaced per session: the same edit in
	// two sessions materializes under different names.
	before := tableSet(db)
	if err := s1.AddSelection("lineitem", "l_quantity", "=", 1); err != nil {
		t.Fatal(err)
	}
	if err := s2.AddSelection("lineitem", "l_quantity", "=", 2); err != nil {
		t.Fatal(err)
	}
	for i, s := range []*Session{s1, s2} {
		prefix := fmt.Sprintf("spec_s%d_", i+1)
		found := false
		for _, n := range newTables(db, before) {
			if strings.HasPrefix(n, prefix) {
				found = true
			}
		}
		if !found {
			t.Fatalf("session %d created no table under %q: %v", i+1, prefix, newTables(db, before))
		}
		_ = s
	}

	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	if got := m.OpenSessions(); got != 1 {
		t.Fatalf("OpenSessions after one close = %d, want 1", got)
	}
	if err := s1.Close(); err != nil { // double close is a no-op
		t.Fatal(err)
	}
	if got := m.OpenSessions(); got != 1 {
		t.Fatalf("OpenSessions after double close = %d, want 1", got)
	}
	if err := s1.Think(time.Second); err == nil {
		t.Fatal("closed session should reject Think")
	}

	if err := m.CloseAll(); err != nil {
		t.Fatal(err)
	}
	if got := m.OpenSessions(); got != 0 {
		t.Fatalf("OpenSessions after CloseAll = %d, want 0", got)
	}
	if err := s2.AddRelation("orders"); err == nil {
		t.Fatal("session closed by CloseAll should reject edits")
	}
	// Everything speculative was released.
	if leaked := newTables(db, before); len(leaked) != 0 {
		t.Fatalf("speculative tables leaked: %v", leaked)
	}
}

// inFlight is the number of manipulations a session has issued and not ended.
func inFlight(s *Session) int {
	st := s.Stats()
	return st.Issued - st.Terminals()
}

func TestSessionContextCancellation(t *testing.T) {
	db := getDB(t)
	m := db.NewSessionManager()
	ctx, cancel := context.WithCancel(context.Background())
	s := m.OpenContext(ctx, SessionConfig{})
	defer s.Close()

	before := tableSet(db)
	if err := s.AddSelection("lineitem", "l_quantity", "=", 1); err != nil {
		t.Fatal(err)
	}
	if inFlight(s) == 0 {
		t.Fatal("no manipulation in flight")
	}
	if len(newTables(db, before)) == 0 {
		t.Fatal("in-flight materialization has no backing table")
	}

	cancel()
	if err := s.Think(time.Minute); !errors.Is(err, context.Canceled) {
		t.Fatalf("Think after cancel = %v, want context.Canceled", err)
	}
	// The in-flight manipulation was canceled and its table dropped.
	if inFlight(s) != 0 {
		t.Fatal("in-flight manipulation survived context cancellation")
	}
	if leaked := newTables(db, before); len(leaked) != 0 {
		t.Fatalf("canceled manipulation leaked tables: %v", leaked)
	}
	if err := s.AddRelation("orders"); !errors.Is(err, context.Canceled) {
		t.Fatalf("edit after cancel = %v, want context.Canceled", err)
	}
	if _, err := s.Go(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Go after cancel = %v, want context.Canceled", err)
	}
}

// TestThinkContainsCompletionFailure: a manipulation that fails to complete
// used to panic the whole process, then to surface as a Think error. Now it
// is contained: the job is aborted (rolled back, counted), the session stays
// usable, and the user never sees the failure.
func TestThinkContainsCompletionFailure(t *testing.T) {
	db := getDB(t)
	s := db.NewSession(SessionConfig{})
	defer s.Close()

	before := tableSet(db)
	if err := s.AddSelection("lineitem", "l_quantity", "=", 1); err != nil {
		t.Fatal(err)
	}
	if inFlight(s) == 0 {
		t.Fatal("no manipulation in flight")
	}
	// Sabotage: drop the hidden speculative table out from under the
	// speculator, so completion cannot register its view.
	for _, n := range newTables(db, before) {
		if _, err := db.Exec("DROP TABLE " + n); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Think(time.Hour); err != nil {
		t.Fatalf("contained completion failure leaked to the user: %v", err)
	}
	st := s.Stats()
	if st.Aborted < 1 {
		t.Fatalf("failed completion not recorded as aborted: %+v", st)
	}
	if st.Failed < 1 {
		t.Fatalf("failed completion not counted as a failure: %+v", st)
	}
	// The session keeps working and can run the final query.
	if err := s.Think(time.Second); err != nil {
		t.Fatalf("session unusable after contained failure: %v", err)
	}
	res, err := s.Go()
	if err != nil {
		t.Fatalf("Go after contained failure: %v", err)
	}
	if res.RowCount == 0 {
		t.Fatal("empty result after contained failure")
	}
	if err := s.Clear(); err != nil {
		t.Fatal(err)
	}
}

// TestAddJoinRejectsSelfJoin: a self-join is user input, so it must come back
// as an error, not trip qgraph's programmer-invariant panic.
// TestAddSelectionDateRange runs a date-range selection through the public
// API (time.Time constants) and compares it with the SQL form date(N).
func TestAddSelectionDateRange(t *testing.T) {
	db := getDB(t)
	m := db.NewSessionManager()
	defer m.CloseAll()
	s := m.Open(SessionConfig{})
	// A time of day must not move the date: 01:30 at UTC+9 is still the
	// previous day in UTC.
	lo := time.Date(1994, time.January, 1, 1, 30, 0, 0, time.FixedZone("east", 9*3600))
	hi := time.Date(1995, time.January, 1, 0, 0, 0, 0, time.UTC)
	if err := s.AddSelection("orders", "o_orderdate", ">=", lo); err != nil {
		t.Fatal(err)
	}
	if err := s.AddSelection("orders", "o_orderdate", "<", hi); err != nil {
		t.Fatal(err)
	}
	got, err := s.Go()
	if err != nil {
		t.Fatal(err)
	}
	// 1994-01-01 and 1995-01-01 as days since 1970-01-01.
	want, err := db.Exec("SELECT * FROM orders WHERE orders.o_orderdate >= date(8766) AND orders.o_orderdate < date(9131)")
	if err != nil {
		t.Fatal(err)
	}
	all, err := db.Exec("SELECT * FROM orders")
	if err != nil {
		t.Fatal(err)
	}
	if want.RowCount == 0 || want.RowCount == all.RowCount {
		t.Fatalf("the range keeps %d of %d orders: it does not discriminate", want.RowCount, all.RowCount)
	}
	if got.RowCount != want.RowCount || resultKey(got) != resultKey(want) {
		t.Fatalf("session answer (%d rows) differs from the SQL form (%d rows)", got.RowCount, want.RowCount)
	}
}

func TestAddJoinRejectsSelfJoin(t *testing.T) {
	db := getDB(t)
	s := db.NewSession(SessionConfig{})
	defer s.Close()
	err := s.AddJoin("lineitem", "l_orderkey", "lineitem", "l_orderkey")
	if err == nil {
		t.Fatal("self-join accepted")
	}
	if !strings.Contains(err.Error(), "self-join") {
		t.Fatalf("error %q does not identify the self-join", err)
	}
	if err := s.RemoveJoin("orders", "o_orderkey", "orders", "o_orderkey"); err == nil {
		t.Fatal("self-join remove accepted")
	}
	// The session survives the rejection.
	if err := s.AddSelection("lineitem", "l_quantity", "<", 10); err != nil {
		t.Fatal(err)
	}
	if err := s.Clear(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentSessionsStress drives many concurrent sessions over
// overlapping relations, beside plain-SQL users, against one shared DB, and
// then checks the shared substrate's invariants. Run under -race this is the
// concurrency safety net.
func TestConcurrentSessionsStress(t *testing.T) {
	db := getDB(t)
	m := db.NewSessionManager()
	before := tableSet(db)
	metricsBefore := db.eng.Metrics().Snapshot()

	const users = 8
	sessions := make([]*Session, users) // left open; CloseAll tears them down
	errCh := make(chan error, users*8)
	var wg sync.WaitGroup
	for i := 0; i < users; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%4 == 3 {
				// A plain-SQL user: no session, direct queries on the
				// shared engine while others speculate.
				for k := 0; k < 3; k++ {
					if _, err := db.Exec("SELECT * FROM supplier WHERE supplier.s_acctbal > 9000"); err != nil {
						errCh <- err
						return
					}
				}
				return
			}
			s := m.Open(SessionConfig{SelectionsOnly: i%2 == 0})
			sessions[i] = s
			// Overlapping relations: everyone works on lineitem/orders.
			if err := s.AddSelection("lineitem", "l_quantity", "=", 1+i); err != nil {
				errCh <- err
				return
			}
			if err := s.Think(45 * time.Second); err != nil {
				errCh <- err
				return
			}
			if err := s.AddJoin("orders", "o_orderkey", "lineitem", "l_orderkey"); err != nil {
				errCh <- err
				return
			}
			if err := s.Think(45 * time.Second); err != nil {
				errCh <- err
				return
			}
			if _, err := s.Go(); err != nil {
				errCh <- err
				return
			}
			if err := s.Clear(); err != nil {
				errCh <- err
				return
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Manager-level stats cover every session that is still open.
	if got, want := len(m.Stats()), m.OpenSessions(); got != want {
		t.Fatalf("SessionManager.Stats() has %d entries, %d sessions open", got, want)
	}

	if err := m.CloseAll(); err != nil {
		t.Fatal(err)
	}
	if got := m.OpenSessions(); got != 0 {
		t.Fatalf("OpenSessions = %d after CloseAll", got)
	}

	// Metrics coherence at quiesce. Counters are monotonic: nothing observed
	// before the run may have decreased, and the stress run itself must have
	// registered statements.
	metricsAfter := db.eng.Metrics().Snapshot()
	for name, v := range metricsBefore.Counters {
		if metricsAfter.Counters[name] < v {
			t.Errorf("counter %s went backwards: %d -> %d", name, v, metricsAfter.Counters[name])
		}
	}
	if metricsAfter.Counters["engine.statements"] <= metricsBefore.Counters["engine.statements"] {
		t.Error("engine.statements did not advance across the stress run")
	}

	// Buffer-pool accounting: every fetch was either a hit or a miss.
	ps := db.eng.Pool.Stats()
	if ps.Hits+ps.Misses != ps.Fetches {
		t.Errorf("pool stats incoherent: hits %d + misses %d != fetches %d", ps.Hits, ps.Misses, ps.Fetches)
	}

	// Speculator lifecycle: with every session closed, each issued job reached
	// exactly one terminal state.
	for i, s := range sessions {
		if s == nil { // a plain-SQL user
			continue
		}
		st := s.Stats()
		if st.Issued != st.Terminals() {
			t.Errorf("session %d: issued %d != terminal %d (%+v)", i, st.Issued, st.Terminals(), st)
		}
		if st.GarbageCollected > st.Completed {
			t.Errorf("session %d: GC'd %d > completed %d", i, st.GarbageCollected, st.Completed)
		}
	}

	// Shared-substrate invariants: no leaked speculative tables, no job
	// still in flight in the ledger, a consistent buffer pool.
	if leaked := newTables(db, before); len(leaked) != 0 {
		t.Fatalf("speculative tables leaked: %v", leaked)
	}
	if got := db.ledger.InFlight(core.AssetKey{}); got != 0 {
		t.Fatalf("%d jobs in flight after all sessions closed", got)
	}
	pool := db.eng.Pool
	if pool.Resident() > pool.Capacity() {
		t.Fatalf("buffer pool over capacity: %d resident, %d frames", pool.Resident(), pool.Capacity())
	}
	if got := pool.StagedCount(); got != 0 {
		t.Fatalf("%d pages still staged after all sessions closed", got)
	}
}

// TestScaledSessionsSharedSpeculation is the hundred-session-scale version of
// the stress test with cross-session CSE on: 96 concurrent sessions, heavily
// overlapping subplans (12 distinct selections across all of them), refcounted
// shared builds, per-session budgets, and extra workers. Run under -race this
// is the CSE layer's safety net; at quiesce it checks the whole substrate —
// lifecycle identities, the shared registry drained, no leaked tables.
func TestScaledSessionsSharedSpeculation(t *testing.T) {
	if testing.Short() {
		t.Skip("scaled concurrent stress is slow")
	}
	db := Open(Options{
		BufferPoolPages:   138,
		PoolShards:        8,
		SpecWorkers:       2,
		SharedSpeculation: true,
		SpecBudgetPages:   64,
	})
	if err := db.LoadTPCH("100MB", 42); err != nil {
		t.Fatal(err)
	}
	m := db.NewSessionManager()
	before := tableSet(db)

	const users = 96
	sessions := make([]*Session, users)
	errCh := make(chan error, users)
	var wg, formulating sync.WaitGroup
	formulating.Add(users)
	for i := 0; i < users; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := m.Open(SessionConfig{SelectionsOnly: i%3 == 0})
			sessions[i] = s
			// Only 12 distinct subplans across 96 sessions: most sessions
			// speculate a subplan someone else is also speculating, which is
			// exactly the CSE layer's target workload.
			err := s.AddSelection("lineitem", "l_quantity", "=", 1+i%12)
			if err == nil {
				err = s.Think(30 * time.Second)
			}
			// Every user is in the middle of a formulation at the same time —
			// what wall-clock think time gives real users and simulated think
			// time does not. Without the barrier, whether a build's owner has
			// already finished and released it when a peer asks is up to the
			// scheduler: a GO no longer queues behind every other session's
			// writes (queries share the statement lock), so it often has.
			formulating.Done()
			formulating.Wait()
			if err != nil {
				errCh <- err
				return
			}
			if i%2 == 0 {
				if err := s.AddJoin("orders", "o_orderkey", "lineitem", "l_orderkey"); err != nil {
					errCh <- err
					return
				}
				if err := s.Think(30 * time.Second); err != nil {
					errCh <- err
					return
				}
			}
			if _, err := s.Go(); err != nil {
				errCh <- err
				return
			}
			if err := s.Clear(); err != nil {
				errCh <- err
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Per-session lifecycle identities at quiesce, and the cross-session
	// waste ledger: one build execution is charged at most once globally.
	globalCharges := map[string]int{}
	var attached int
	for i, s := range sessions {
		if s == nil {
			continue
		}
		st := s.Stats()
		if st.Issued != st.Terminals() {
			t.Errorf("session %d: issued %d != terminal %d (%+v)", i, st.Issued, st.Terminals(), st)
		}
		if st.GarbageCollected > st.Completed {
			t.Errorf("session %d: GC'd %d > completed %d", i, st.GarbageCollected, st.Completed)
		}
		attached += st.SharedAttached
		for id, n := range s.sp.WasteCharges() {
			globalCharges[id] += n
		}
	}
	for id, n := range globalCharges {
		if n > 1 {
			t.Errorf("build %s charged to waste %d times across sessions", id, n)
		}
	}
	if attached == 0 {
		t.Error("no session attached to a shared build despite 8x subplan overlap")
	}

	if err := m.CloseAll(); err != nil {
		t.Fatal(err)
	}
	// The ledger must be fully drained: every shared build released by its
	// last holder and its backing table dropped.
	if n, m := db.ledger.Len(), db.ledger.Misuses(); n != 0 || m != 0 {
		t.Fatalf("ledger holds %d entries after CloseAll, %d misuses", n, m)
	}
	if leaked := newTables(db, before); len(leaked) != 0 {
		t.Fatalf("speculative tables leaked: %v", leaked)
	}
	if got := db.ledger.InFlight(core.AssetKey{}); got != 0 {
		t.Fatalf("%d jobs in flight after all sessions closed", got)
	}
	if got := db.eng.Pool.StagedCount(); got != 0 {
		t.Fatalf("%d pages still staged after all sessions closed", got)
	}
}
