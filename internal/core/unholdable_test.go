package core

import (
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"specdb/internal/sim"
	"specdb/internal/tuple"
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

// TestUnholdablePredictionRunsForItsCost is the admission boundary of the
// answer cache seen from a speculator (DESIGN.md §14). At EstPages equal to
// the cache's capacity the predicted final is collected, published and served.
// One page over, the same job runs through CountQuery: it takes the same
// simulated time and ends the same way, but holds no rows, the cache's size,
// footprint and stored count do not move, and its GO always executes. The
// terminal and predicted counters read the same on both sides.
func TestUnholdablePredictionRunsForItsCost(t *testing.T) {
	const n = 20000
	pages := predictedPages(t, n)
	matching := int64(0)
	for i := 0; i < n; i++ {
		if i%23 > 18 {
			matching++
		}
	}
	type side struct {
		sp    *Speculator
		job   *Job
		stats Stats // after the completion, before any GO
		next  *Job  // outstanding then
	}
	run := func(capacity int) side {
		e := newTestEngine(t, n)
		sp, job := predictOnly(t, e, capacity)
		counter := func(name string) int64 { return e.Metrics().Snapshot().Counters[name] }
		held := capacity >= pages
		if got := int64(len(job.predRows)); held && got != matching || !held && job.predRows != nil {
			t.Fatalf("capacity %d: the job holds %d rows at issue", capacity, got)
		}
		wantCounted := int64(1)
		if held {
			wantCounted = 0
		}
		if got := counter("answers.unholdable"); got != wantCounted {
			t.Fatalf("capacity %d: answers.unholdable = %d, want %d", capacity, got, wantCounted)
		}
		if got, want := counter("answers.unholdable_ns"), wantCounted*int64(job.CompletesAt.Sub(job.IssuedAt)); got != want {
			t.Fatalf("capacity %d: answers.unholdable_ns = %d, want %d", capacity, got, want)
		}
		if err := sp.Advance(job.CompletesAt); err != nil {
			t.Fatal(err)
		}
		ac := sp.cfg.Answers
		wantLen, wantPages, wantStored := 0, 0, int64(0)
		if held {
			wantLen, wantPages, wantStored = 1, pages, 1
		}
		if ac.Len() != wantLen || ac.Pages() != wantPages || counter("answers.stored") != wantStored || sp.predictedReady[job.formKey] != held {
			t.Fatalf("capacity %d: cache holds %d answers in %d pages, %d stored, form ready %v; want %d, %d, %d, %v",
				capacity, ac.Len(), ac.Pages(), counter("answers.stored"), sp.predictedReady[job.formKey], wantLen, wantPages, wantStored, held)
		}
		s := side{sp: sp, job: job, stats: sp.Stats(), next: one(sp.outstanding)}

		// GO twice, a second apart, with every prediction due by then
		// completed first: a GO is served only from a held answer.
		now := job.CompletesAt
		for g := 0; g < 2; g++ {
			now = now.Add(sim.DurationFromSeconds(1))
			if err := sp.Advance(now); err != nil {
				t.Fatal(err)
			}
			res, _, err := sp.OnGo(now)
			if err != nil {
				t.Fatal(err)
			}
			served := res.Plan == nil
			if served != held || res.RowCount != matching || int64(len(res.Rows)) != matching {
				t.Fatalf("capacity %d, GO %d: served %v with %d rows (RowCount %d); want served %v with %d",
					capacity, g, served, len(res.Rows), res.RowCount, held, matching)
			}
		}
		if !held && (sp.Stats().PredictedGos != 0 || ac.Len() != 0 || counter("answers.stored") != 0) {
			t.Fatalf("capacity %d: an unholdable prediction was stored or served: %+v", capacity, sp.Stats())
		}
		if err := sp.Shutdown(); err != nil {
			t.Fatal(err)
		}
		return s
	}
	fits, over := run(pages), run(pages-1)

	if a, b := fits.job.CompletesAt.Sub(fits.job.IssuedAt), over.job.CompletesAt.Sub(over.job.IssuedAt); a != b || a <= 0 {
		t.Fatalf("the collected prediction ran %v, the counted one %v", a, b)
	}
	// Both jobs completed. Nothing of the counted one is ready, so its
	// speculator predicts the same form again at once, as it did when Put
	// refused a collected answer (issuing it is ROADMAP item 4's to price).
	a, b := fits.stats, over.stats
	if a.Terminals() != b.Terminals() || a.Completed != b.Completed || a.Completed != 1 ||
		a.PredictedCompleted != b.PredictedCompleted || a.PredictedCompleted != 1 ||
		a.PredictedCanceled != b.PredictedCanceled || a.Waste != b.Waste {
		t.Fatalf("the two jobs ended differently:\nheld    %+v\ncounted %+v", a, b)
	}
	if a.Issued != 1 || a.PredictedIssued != 1 || fits.next != nil ||
		b.Issued != 2 || b.PredictedIssued != 2 || over.next == nil || over.next.formKey != over.job.formKey {
		t.Fatalf("issued: held %d (%d predicted), then %v; counted %d (%d predicted), then %v",
			a.Issued, a.PredictedIssued, fits.next, b.Issued, b.PredictedIssued, over.next)
	}
}

// TestUnholdablePredictionAllocatesNoAnswer is the memory gate of the count
// path: issuing a predicted final the cache cannot hold allocates less than
// the answer's values would occupy, and at least that much less than issuing
// the same final when the cache can hold it.
func TestUnholdablePredictionAllocatesNoAnswer(t *testing.T) {
	const n = 20000
	pages := predictedPages(t, n)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	issueBytes := func(capacity int) (bytes uint64, rows int) {
		e := newTestEngine(t, n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sp, job := predictOnly(t, e, capacity)
		runtime.ReadMemStats(&after)
		if err := sp.Shutdown(); err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc, len(job.predRows)
	}
	heldBytes, rows := issueBytes(pages)
	countedBytes, none := issueBytes(pages - 1)
	answer := uint64(rows) * 2 * uint64(unsafe.Sizeof(tuple.Value{})) // R has two columns
	if rows == 0 || none != 0 {
		t.Fatalf("held issue kept %d rows, counted issue %d", rows, none)
	}
	if countedBytes >= answer || heldBytes-countedBytes < answer {
		t.Fatalf("issuing allocates %d bytes when the answer is held and %d when it is only counted; the answer's values take %d",
			heldBytes, countedBytes, answer)
	}
}
