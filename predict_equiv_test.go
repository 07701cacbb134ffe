package specdb

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"
	"time"

	"specdb/internal/tpch"
	"specdb/internal/trace"
)

// resultKey is an order-insensitive multiset key over a public Result's rows,
// with value kinds tagged so float 1 and int 1 hash apart (the same property
// harness.RowSetKey enforces internally).
func resultKey(res *Result) uint64 {
	var sum uint64
	for _, row := range res.Rows {
		h := fnv.New64a()
		for _, v := range row {
			switch x := v.(type) {
			case int64:
				fmt.Fprintf(h, "i:%d|", x)
			case float64:
				fmt.Fprintf(h, "f:%x|", math.Float64bits(x))
			default:
				fmt.Fprintf(h, "s:%v|", x)
			}
		}
		sum += h.Sum64()
	}
	return sum
}

// driveTrace drives one generated trace through a session the way the visual
// interface would — think to each event's timestamp, apply the edit — and
// calls pressGo, which must press GO, at each EvGo.
func driveTrace(s *Session, tr *trace.Trace, pressGo func() error) error {
	for _, ev := range tr.Events {
		if d := time.Duration(ev.At()) - s.Now(); d > 0 {
			if err := s.Think(d); err != nil {
				return err
			}
		}
		var err error
		if ev.Kind == trace.EvGo {
			err = pressGo()
		} else {
			err = s.apply(ev)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// replayTraceKeys drives one generated trace through a managed session and
// returns the session (left open; the caller's CloseAll tears it down) plus
// the multiset key of every GO answer.
func replayTraceKeys(t *testing.T, m *SessionManager, tr *trace.Trace) (*Session, []uint64) {
	t.Helper()
	s := m.Open(SessionConfig{})
	var keys []uint64
	err := driveTrace(s, tr, func() error {
		res, err := s.Go()
		if err == nil {
			keys = append(keys, resultKey(res))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, keys
}

// TestPredictedResultEquivalence is the whole-query prediction safety net
// (DESIGN.md §14): across pool shard counts {1, 4}, speculation worker counts
// {1, 3}, and predictor on/off, every GO answer must be row-for-row equivalent
// (as a multiset) to the plain predictor-off reference, and at CloseAll every
// session must satisfy the extended quiesce identity
// PredictedIssued == PredictedCompleted + PredictedCanceled.
func TestPredictedResultEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix replay is slow")
	}
	traces, err := trace.GenerateCorpus(tpch.Vocabulary(), 2, 11)
	if err != nil {
		t.Fatal(err)
	}

	run := func(t *testing.T, shards, workers int, predict bool) [][]uint64 {
		db := Open(Options{
			BufferPoolPages: 64,
			PoolShards:      shards,
			SpecWorkers:     workers,
			PredictFinals:   predict,
			// The wide runs are governed: three workers a session on a 64-page
			// pool is the pressure the governor exists for, and shedding must
			// not change an answer.
			Governor: workers > 1,
		})
		if err := db.LoadTPCH("100MB", 42); err != nil {
			t.Fatal(err)
		}
		m := db.NewSessionManager()
		keys := make([][]uint64, len(traces))
		sessions := make([]*Session, len(traces))
		for i, tr := range traces {
			sessions[i], keys[i] = replayTraceKeys(t, m, tr)
		}
		if err := m.CloseAll(); err != nil {
			t.Fatal(err)
		}
		if n, misuses := db.ledger.Len(), db.ledger.Misuses(); n != 0 || misuses != 0 {
			t.Fatalf("ledger holds %d entries after CloseAll, %d misuses", n, misuses)
		}
		governed := 0
		for i, s := range sessions {
			st := s.Stats()
			governed += st.GovernorDeferred + st.Shed + st.ShedRetained
			if st.PredictedIssued != st.PredictedCompleted+st.PredictedCanceled {
				t.Fatalf("session %d after CloseAll: predicted issued %d != completed %d + canceled %d",
					i, st.PredictedIssued, st.PredictedCompleted, st.PredictedCanceled)
			}
			if !predict && st.PredictedIssued != 0 {
				t.Fatalf("session %d issued %d predicted jobs with prediction off", i, st.PredictedIssued)
			}
		}
		if (governed > 0) != (workers > 1) {
			t.Fatalf("workers=%d: the governor refused or shed %d times", workers, governed)
		}
		return keys
	}

	ref := run(t, 1, 1, false)
	for _, shards := range []int{1, 4} {
		for _, workers := range []int{1, 3} {
			for _, predict := range []bool{false, true} {
				if shards == 1 && workers == 1 && !predict {
					continue // the reference itself
				}
				name := fmt.Sprintf("shards=%d/workers=%d/predict=%v", shards, workers, predict)
				t.Run(name, func(t *testing.T) {
					got := run(t, shards, workers, predict)
					for ti := range ref {
						if len(got[ti]) != len(ref[ti]) {
							t.Fatalf("trace %d: %d GO answers, reference has %d", ti, len(got[ti]), len(ref[ti]))
						}
						for qi := range ref[ti] {
							if got[ti][qi] != ref[ti][qi] {
								t.Fatalf("trace %d query %d: answer key %x, reference %x", ti, qi, got[ti][qi], ref[ti][qi])
							}
						}
					}
				})
			}
		}
	}
}
