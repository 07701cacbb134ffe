package fault

import (
	"testing"
	"time"

	"specdb/internal/obs"
	"specdb/internal/sim"
)

func gbSecs(n int) sim.Duration { return sim.Duration(n) * time.Second }

func TestGlobalBreakerNilReceiverIsClosed(t *testing.T) {
	var b *GlobalBreaker
	if b.Failure(sim.Time(0)) {
		t.Fatal("nil breaker tripped")
	}
	b.Success(sim.Time(0))
	if b.Open(sim.Time(0)) {
		t.Fatal("nil breaker reports open")
	}
	if b.Trips() != 0 {
		t.Fatal("nil breaker counted trips")
	}
	if b.DegradedTime(sim.Time(0)) != 0 {
		t.Fatal("nil breaker banked degraded time")
	}
}

func TestGlobalBreakerTripCooldownAndMetrics(t *testing.T) {
	b := NewGlobalBreaker()
	reg := obs.NewRegistry()
	b.AttachMetrics(reg)
	opened := reg.Counter("gbreaker.opened")
	closed := reg.Counter("gbreaker.closed")

	// Eleven outcomes, all but five failed: a rate far past 0.5, but fewer
	// than the 12 samples a trip needs.
	now := sim.Time(0)
	for i := range 5 {
		b.Success(now.Add(gbSecs(i)))
	}
	for i := 5; i < 10; i++ {
		if b.Failure(now.Add(gbSecs(i))) {
			t.Fatal("breaker tripped below 12 samples")
		}
	}
	b.Success(now.Add(gbSecs(10)))
	if b.Open(now.Add(gbSecs(10))) {
		t.Fatal("breaker open below 12 samples")
	}
	if !b.Failure(now.Add(gbSecs(11))) { // 6 fails / 12 samples ≥ 0.5
		t.Fatal("breaker did not trip at a 50% failure rate over 12 samples")
	}
	at := now.Add(gbSecs(11))
	if !b.Open(at) {
		t.Fatal("tripped breaker reports closed")
	}
	if opened.Value() != 1 || closed.Value() != 0 {
		t.Fatalf("metrics after trip: opened=%d closed=%d, want 1/0", opened.Value(), closed.Value())
	}

	// Outcomes while open neither re-trip nor reset the cooldown.
	if b.Failure(at.Add(gbSecs(5))) {
		t.Fatal("open breaker re-tripped")
	}
	b.Success(at.Add(gbSecs(6)))
	if b.Trips() != 1 {
		t.Fatalf("trips = %d, want 1", b.Trips())
	}

	// Mid-cooldown the open span is measured to now.
	if d := b.DegradedTime(at.Add(gbSecs(10))); d != gbSecs(10) {
		t.Fatalf("mid-cooldown DegradedTime = %v, want 10s", d)
	}

	// The first query at or past the 60 s deadline closes it and banks the
	// span.
	if !b.Open(at.Add(gbSecs(59))) {
		t.Fatal("breaker closed before its 60 s cooldown")
	}
	later := at.Add(gbSecs(60))
	if b.Open(later) {
		t.Fatal("breaker still open after full cooldown")
	}
	if closed.Value() != 1 {
		t.Fatalf("closed counter = %d, want 1", closed.Value())
	}
	if d := b.DegradedTime(later.Add(gbSecs(5))); d != gbSecs(60) {
		t.Fatalf("banked DegradedTime = %v, want exactly the 60s cooldown", d)
	}
}

func TestGlobalBreakerWindowRollDropsStaleSamples(t *testing.T) {
	b := NewGlobalBreaker()
	now := sim.Time(0)
	for i := range 11 {
		b.Failure(now.Add(gbSecs(i)))
	}
	// The 12th outcome lands 30 s into the window, so the window has rolled:
	// the stale failures must not combine with it into a trip.
	if b.Failure(now.Add(gbSecs(30))) {
		t.Fatal("stale failures outside the window tripped the breaker")
	}
	if b.Open(now.Add(gbSecs(30))) {
		t.Fatal("breaker open after window roll")
	}
	if b.Trips() != 0 {
		t.Fatalf("trips = %d, want 0", b.Trips())
	}
}
