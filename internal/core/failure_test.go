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
	br.canceled(at(64))
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
	for name, want := range map[string]int64{"breaker.opened": 3, "breaker.closed": 1, "breaker.probes": 3} {
		if v := reg.Counter(name).Value(); v != want {
			t.Fatalf("%s = %d, want %d", name, v, want)
		}
	}
}
