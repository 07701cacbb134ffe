package core

import (
	"testing"
	"time"

	"specdb/internal/engine"
	"specdb/internal/obs"
	"specdb/internal/qgraph"
	"specdb/internal/sim"
	"specdb/internal/trace"
	"specdb/internal/tuple"
)

func TestBreakerStateMachine(t *testing.T) {
	reg := obs.NewRegistry()
	br := newSessionBreaker(reg)
	at := func(sec int) sim.Time { return sim.Time(secs(sec)) }

	if br.state != breakerClosed || !br.allow(at(0)) {
		t.Fatal("breaker should start closed and allowing")
	}
	// Two failures: still closed.
	br.failure(at(1))
	if tripped := br.failure(at(2)); tripped {
		t.Fatal("tripped below threshold")
	}
	// Third consecutive failure trips it.
	if tripped := br.failure(at(3)); !tripped {
		t.Fatal("did not trip at threshold")
	}
	if br.state != breakerOpen {
		t.Fatalf("state %v, want open", br.state)
	}
	if br.allow(at(4)) || br.allow(at(32)) {
		t.Fatal("open breaker allowed before the 30 s cooldown")
	}
	// Cooldown elapsed: one half-open probe is admitted, a second is not.
	if !br.allow(at(33)) {
		t.Fatal("half-open probe rejected after cooldown")
	}
	if br.state != breakerHalfOpen {
		t.Fatalf("state %v, want half-open", br.state)
	}
	if br.allow(at(33)) {
		t.Fatal("second concurrent probe admitted")
	}
	// A failed probe reopens immediately (no threshold).
	if tripped := br.failure(at(34)); !tripped {
		t.Fatal("failed probe did not reopen")
	}
	if br.allow(at(63)) {
		t.Fatal("reopened breaker allowed before a fresh cooldown")
	}
	// A canceled probe also reopens.
	if !br.allow(at(64)) {
		t.Fatal("second probe rejected")
	}
	if tripped := br.canceled(at(64)); !tripped {
		t.Fatal("canceled probe did not report its reopening")
	}
	if br.state != breakerOpen {
		t.Fatalf("state %v after canceled probe, want open", br.state)
	}
	// A successful probe closes the breaker and failures reset.
	if !br.allow(at(94)) {
		t.Fatal("third probe rejected")
	}
	if resumed := br.success(); !resumed {
		t.Fatal("successful probe did not resume")
	}
	if br.state != breakerClosed || !br.allow(at(95)) {
		t.Fatal("breaker should be closed and allowing after resume")
	}
	if resumed := br.success(); resumed {
		t.Fatal("success while closed reported a resume")
	}
	if tripped := br.canceled(at(96)); tripped {
		t.Fatal("a canceled job while closed reported a trip")
	}
	// Openings and closings are the caller's to count (Stats.BreakerTrips
	// and BreakerResumes, mirrored in the registry); the breaker counts its
	// probes.
	if v := reg.Counter("breaker.probes").Value(); v != 3 {
		t.Fatalf("breaker.probes = %d, want 3", v)
	}
}

// TestFailedKeyBacksOffThenIsAbandoned fails one materialization at
// completion — its table is gone when it would be published — until it is
// abandoned: the speculator backs off 2, 4 and 8 s, abandons the key at the
// third failure and never issues it again, not even once a probe of another
// key has closed the breaker its failures tripped. A completion between the
// second and third failure restarts the count.
func TestFailedKeyBacksOffThenIsAbandoned(t *testing.T) {
	neutral := trace.Event{Kind: trace.EvSetProjections}
	setup := func(t *testing.T) (*engine.Engine, *Speculator, *Job) {
		e := newTestEngine(t, 20000)
		if err := e.ColdStart(); err != nil {
			t.Fatal(err)
		}
		sp := newSpec(e, DefaultConfig())
		out, err := sp.OnEvent(evAddSel(selRC(18)), 0)
		if err != nil || one(out.Issued) == nil {
			t.Fatalf("no build issued: %v", err)
		}
		return e, sp, one(out.Issued)
	}
	// fail completes job with its table dropped, requires the backoff after
	// it and the failure counts, and returns the instant the backoff ends.
	fail := func(t *testing.T, e *engine.Engine, sp *Speculator, job *Job, backoff time.Duration, failed, abandoned int) sim.Time {
		t.Helper()
		if err := e.DropTable(job.tableName); err != nil {
			t.Fatal(err)
		}
		issued, err := sp.Complete(job, job.CompletesAt)
		if err != nil {
			t.Fatal(err)
		}
		st := sp.Stats()
		if len(issued) != 0 || st.Aborted != failed || st.Failed != failed || st.Abandoned != abandoned {
			t.Fatalf("after failure %d: issued %d, stats %+v", failed, len(issued), st)
		}
		if want := job.CompletesAt.Add(backoff); sp.retryAt != want {
			t.Fatalf("failure %d backs off to %v, want %v", failed, sp.retryAt, want)
		}
		return sp.retryAt
	}
	// retry requires nothing to issue before at and job's key to issue at at.
	retry := func(t *testing.T, sp *Speculator, job *Job, at sim.Time) *Job {
		t.Helper()
		if out, err := sp.OnEvent(neutral, at-1); err != nil || len(out.Issued) != 0 {
			t.Fatalf("issued %d jobs during the backoff (%v)", len(out.Issued), err)
		}
		out, err := sp.OnEvent(neutral, at)
		if next := one(out.Issued); err != nil || next == nil || next.asset != job.asset {
			t.Fatalf("no retry of %s at the end of the backoff: %v (%v)", job.asset.Manip, out.Issued, err)
		}
		return one(out.Issued)
	}

	t.Run("abandoned", func(t *testing.T) {
		e, sp, job := setup(t)
		key := job.asset
		at := fail(t, e, sp, job, 2*time.Second, 1, 0)
		at = fail(t, e, sp, retry(t, sp, job, at), 4*time.Second, 2, 0)
		at = fail(t, e, sp, retry(t, sp, job, at), 8*time.Second, 3, 1)
		if sp.breaker.state != breakerOpen {
			t.Fatalf("three failures left the breaker %v", sp.breaker.state)
		}
		// Past the cooldown another key is the half-open probe; its completion
		// closes the breaker.
		at = at.Add(breakerCooldown)
		wLt := qgraph.Selection{Rel: "W", Col: "d", Op: tuple.CmpLT, Const: tuple.NewInt(500)}
		out, err := sp.OnEvent(evAddSel(wLt), at)
		probe := one(out.Issued)
		if err != nil || probe == nil || probe.asset == key {
			t.Fatalf("probe %v (%v)", out.Issued, err)
		}
		if _, err := sp.Complete(probe, probe.CompletesAt); err != nil {
			t.Fatal(err)
		}
		if sp.breaker.state != breakerClosed {
			t.Fatalf("the probe's completion left the breaker %v", sp.breaker.state)
		}
		at = probe.CompletesAt
		for _, ev := range []trace.Event{neutral, evRemoveSel(selRC(18)), evAddSel(selRC(18)), neutral} {
			at = at.Add(secs(1))
			if err := sp.Advance(at); err != nil {
				t.Fatal(err)
			}
			out, err := sp.OnEvent(ev, at)
			if err != nil {
				t.Fatal(err)
			}
			for _, job := range out.Issued {
				if job.asset == key {
					t.Fatalf("the abandoned %s was issued again at %s", key.Manip, ev.Kind)
				}
			}
		}
		if st := sp.Stats(); st.Abandoned != 1 || st.Failed != 3 {
			t.Errorf("stats %+v, want one key abandoned after three failures", st)
		}
	})

	t.Run("completion_restarts_count", func(t *testing.T) {
		e, sp, job := setup(t)
		at := fail(t, e, sp, job, 2*time.Second, 1, 0)
		at = fail(t, e, sp, retry(t, sp, job, at), 4*time.Second, 2, 0)
		done := retry(t, sp, job, at)
		if _, err := sp.Complete(done, done.CompletesAt); err != nil || sp.Stats().Completed != 1 {
			t.Fatalf("the third attempt did not complete: %v", err)
		}
		// Let go of the view and ask for it again: the same key issues anew.
		at = done.CompletesAt
		if _, err := sp.OnEvent(evRemoveSel(selRC(18)), at); err != nil {
			t.Fatal(err)
		}
		out, err := sp.OnEvent(evAddSel(selRC(18)), at)
		if again := one(out.Issued); err != nil || again == nil || again.asset != job.asset {
			t.Fatalf("no re-issue after the view was dropped: %v (%v)", out.Issued, err)
		}
		fail(t, e, sp, one(out.Issued), 2*time.Second, 3, 0)
	})
}
