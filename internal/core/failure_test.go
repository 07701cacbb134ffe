package core

import (
	"testing"

	"specdb/internal/obs"
	"specdb/internal/sim"
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
