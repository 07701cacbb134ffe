package specdb

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// stressFaultConfig mixes every fault kind at rates the containment machinery
// must fully absorb: no user-visible failure is acceptable.
func stressFaultConfig(seed uint64) FaultConfig {
	return FaultConfig{
		Seed:                seed,
		ReadErrorRate:       0.02,
		WriteErrorRate:      0.02,
		CorruptionRate:      0.01,
		SlowIORate:          0.02,
		FrameExhaustionRate: 0.02,
	}
}

// TestConcurrentSessionsStressWithFaults is the fault-enabled counterpart of
// TestConcurrentSessionsStress: concurrent speculating and plain-SQL users on
// one shared engine while the injector fails reads, writes, admissions, and
// corrupts pages. Every user query must complete with correct results, and
// the speculator accounting must balance at quiesce.
func TestConcurrentSessionsStressWithFaults(t *testing.T) {
	db := Open(Options{BufferPoolPages: 64, Fault: stressFaultConfig(31)})
	inj := db.eng.FaultInjector()
	if inj == nil {
		t.Fatal("no injector")
	}
	// Load fault-free so the dataset matches every other test's.
	inj.SetArmed(false)
	if err := db.LoadTPCH("100MB", 42); err != nil {
		t.Fatal(err)
	}
	inj.SetArmed(true)

	m := db.NewSessionManager()
	const users = 8
	sessions := make([]*Session, users)
	rows := make([]int64, users)
	errCh := make(chan error, users*8)
	var wg sync.WaitGroup
	for i := 0; i < users; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%4 == 3 {
				for k := 0; k < 3; k++ {
					res, err := db.Exec("SELECT * FROM supplier WHERE supplier.s_acctbal > 9000")
					if err != nil {
						errCh <- fmt.Errorf("plain user %d: %w", i, err)
						return
					}
					rows[i] = res.RowCount
				}
				return
			}
			s := m.Open(SessionConfig{SelectionsOnly: i%2 == 0})
			sessions[i] = s
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
			res, err := s.Go()
			if err != nil {
				errCh <- fmt.Errorf("user %d Go: %w", i, err)
				return
			}
			rows[i] = res.RowCount
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
	if err := m.CloseAll(); err != nil {
		t.Fatal(err)
	}

	// Results must match a fault-free execution of the same queries.
	inj.SetArmed(false)
	for i := 0; i < users; i++ {
		var want int64
		if i%4 == 3 {
			res, err := db.Exec("SELECT * FROM supplier WHERE supplier.s_acctbal > 9000")
			if err != nil {
				t.Fatal(err)
			}
			want = res.RowCount
		} else {
			res, err := db.Exec(fmt.Sprintf(
				"SELECT * FROM lineitem, orders WHERE lineitem.l_orderkey = orders.o_orderkey AND lineitem.l_quantity = %d", 1+i))
			if err != nil {
				t.Fatal(err)
			}
			want = res.RowCount
		}
		if rows[i] != want {
			t.Errorf("user %d: got %d rows under faults, fault-free answer is %d", i, rows[i], want)
		}
	}

	// Quiesce accounting: every issued job reached exactly one terminal state.
	for i, s := range sessions {
		if s == nil { // a plain-SQL user
			continue
		}
		st := s.Stats()
		if st.Issued != st.Terminals() {
			t.Errorf("session %d: issued %d != terminal %d (%+v)", i, st.Issued, st.Terminals(), st)
		}
	}
	if n := db.eng.Pool.Misuses(); n != 0 {
		t.Errorf("pool misuses under faults: %d (%v)", n, db.eng.Pool.MisuseError())
	}
	if db.eng.PanicLog().Total() != 0 {
		t.Errorf("recovered panics during fault stress: %+v", db.eng.PanicLog().Records())
	}
	// No speculative leftovers.
	for _, n := range db.Tables() {
		if len(n) >= 4 && n[:4] == "spec" {
			t.Errorf("speculative table %q leaked", n)
		}
	}
}

// TestBreakerSuspendsAndResumes forces repeated completion failures until the
// per-session circuit breaker opens, then lets a half-open probe succeed and
// asserts speculation resumed — all observable through the session stats and
// the engine's breaker.* counters.
func TestBreakerSuspendsAndResumes(t *testing.T) {
	db := getDB(t)
	openedBefore := db.eng.Metrics().Counter("breaker.opened").Value()
	closedBefore := db.eng.Metrics().Counter("breaker.closed").Value()

	s := db.NewSession(SessionConfig{})
	defer s.Close()
	before := tableSet(db)
	sabotage := func() {
		for _, n := range newTables(db, before) {
			if _, err := db.Exec("DROP TABLE " + n); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Phase 1: fail completions until the breaker trips.
	val := 1
	for i := 0; i < 60 && s.Stats().BreakerTrips == 0; i++ {
		if err := s.AddSelection("lineitem", "l_quantity", "=", val); err != nil {
			t.Fatal(err)
		}
		val++
		if inFlight(s) > 0 {
			sabotage()
		}
		if err := s.Think(2 * time.Minute); err != nil {
			t.Fatal(err)
		}
		if err := s.Clear(); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.BreakerTrips == 0 {
		t.Fatalf("breaker never tripped after repeated failures: %+v", st)
	}
	if got := db.eng.Metrics().Counter("breaker.opened").Value(); got <= openedBefore {
		t.Fatalf("breaker.opened counter did not advance (%d -> %d)", openedBefore, got)
	}

	// Phase 2: stop sabotaging; a half-open probe must complete and close the
	// breaker.
	completedAtTrip := st.Completed
	for i := 0; i < 60 && s.Stats().BreakerResumes == 0; i++ {
		if err := s.AddSelection("lineitem", "l_quantity", "=", val); err != nil {
			t.Fatal(err)
		}
		val++
		if err := s.Think(2 * time.Minute); err != nil {
			t.Fatal(err)
		}
		if err := s.Clear(); err != nil {
			t.Fatal(err)
		}
	}
	st = s.Stats()
	if st.BreakerResumes == 0 {
		t.Fatalf("breaker never resumed after failures stopped: %+v", st)
	}
	if st.Completed <= completedAtTrip {
		t.Fatalf("no manipulation completed after resume: %+v", st)
	}
	if got := db.eng.Metrics().Counter("breaker.closed").Value(); got <= closedBefore {
		t.Fatalf("breaker.closed counter did not advance (%d -> %d)", closedBefore, got)
	}
}
