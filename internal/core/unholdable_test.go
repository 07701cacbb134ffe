package core

import (
	"strings"
	"testing"

	"specdb/internal/sim"
)

// predictedPages is the footprint the cost model gives predictOnly's final on
// newTestEngine(t, n): the capacity at which the cache just admits it.
func predictedPages(t *testing.T, n int) int {
	t.Helper()
	_, job := predictOnly(t, newTestEngine(t, n), 0)
	if job.Manip.EstPages < 2 {
		t.Fatalf("the predicted final is estimated at %d pages; the test needs a cache of one page less", job.Manip.EstPages)
	}
	return job.Manip.EstPages
}

// TestUnholdablePredictionIsNeverIssued is the admission boundary of the
// answer cache seen from a speculator (DESIGN.md §14). At a capacity equal to
// the final's EstPages the prediction is issued, collected, stored and
// served. One page under, the walk refuses it: nothing is issued, no job
// runs, answers.refused is the only answers.* counter that moves, and every
// GO executes.
func TestUnholdablePredictionIsNeverIssued(t *testing.T) {
	const n = 20000
	pages := predictedPages(t, n)
	matching := int64(0)
	for i := 0; i < n; i++ {
		if i%23 > 18 {
			matching++
		}
	}
	for _, capacity := range []int{pages, pages - 1} {
		held := capacity == pages
		e := newTestEngine(t, n)
		counters := func() map[string]int64 { return e.Metrics().Snapshot().Counters }
		sp, issued := predictIssue(t, e, capacity)
		ac := sp.cfg.Answers
		now, wantIssued := sim.FromSeconds(1), 0
		if held {
			job := one(issued)
			if len(issued) != 1 || job.Manip.Kind != ManipPredictFinal || int64(len(job.predRows)) != matching {
				t.Fatalf("capacity %d: issued %v", capacity, issued)
			}
			if err := sp.Advance(job.CompletesAt); err != nil {
				t.Fatal(err)
			}
			if ac.Len() != 1 || ac.Pages() != pages || counters()["answers.stored"] != 1 || !sp.predictedReady[job.formKey] {
				t.Fatalf("capacity %d: cache holds %d answers in %d pages, %d stored, form ready %v",
					capacity, ac.Len(), ac.Pages(), counters()["answers.stored"], sp.predictedReady[job.formKey])
			}
			now, wantIssued = job.CompletesAt, 1
		} else if len(issued) != 0 {
			t.Fatalf("capacity %d: the walk issued %v", capacity, issued)
		}
		if st := sp.Stats(); st.Issued != wantIssued || st.PredictedIssued != wantIssued {
			t.Fatalf("capacity %d: %d issued (%d predicted), want %d", capacity, st.Issued, st.PredictedIssued, wantIssued)
		}

		// GO twice, a second apart: a GO is served only from a held answer.
		for g := 0; g < 2; g++ {
			now = now.Add(sim.DurationFromSeconds(1))
			if err := sp.Advance(now); err != nil {
				t.Fatal(err)
			}
			res, _, err := sp.OnGo(now)
			if err != nil {
				t.Fatal(err)
			}
			if served := res.Plan == nil; served != held || res.RowCount != matching || int64(len(res.Rows)) != matching {
				t.Fatalf("capacity %d, GO %d: served %v with %d rows (RowCount %d); want served %v with %d",
					capacity, g, served, len(res.Rows), res.RowCount, held, matching)
			}
		}
		c := counters()
		if refused := c["answers.refused"]; held && refused != 0 || !held && refused == 0 {
			t.Fatalf("capacity %d: answers.refused = %d", capacity, refused)
		}
		if !held {
			for name, v := range c {
				if strings.HasPrefix(name, "answers.") && name != "answers.refused" && v != 0 {
					t.Errorf("capacity %d: %s = %d after the walk refused the prediction", capacity, name, v)
				}
			}
			if st := sp.Stats(); st.Issued != 0 || st.PredictedGos != 0 || ac.Len() != 0 {
				t.Fatalf("capacity %d: an unholdable prediction ran or was served: %+v", capacity, st)
			}
		}
		if err := sp.Shutdown(); err != nil {
			t.Fatal(err)
		}
	}
}
