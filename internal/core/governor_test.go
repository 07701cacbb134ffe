package core

import (
	"testing"
	"time"

	"specdb/internal/buffer"
	"specdb/internal/obs"
	"specdb/internal/sim"
	"specdb/internal/storage"
)

func testPool(t *testing.T, pages int) *buffer.Pool {
	t.Helper()
	return buffer.NewShardedPool(storage.NewDiskManager(0), pages, 1, sim.NewMeter())
}

func secs(n int) sim.Duration { return sim.Duration(n) * sim.Duration(time.Second) }

// footprintLedger is a ledger with one session whose speculative footprint a
// test sets directly, as one in-flight entry of that many pages.
type footprintLedger struct {
	*Ledger
	holder int
}

func newFootprintLedger() footprintLedger {
	l := NewLedger(obs.NewRegistry(), false)
	return footprintLedger{l, l.NewHolder()}
}

func (f footprintLedger) set(pages int) {
	key := AssetKey{Scope: f.holder, Manip: "footprint"}
	if !f.Claim(key, f.holder, 0, pages) {
		f.End(key, f.holder)
		f.Claim(key, f.holder, 0, pages)
	}
}

// TestGovernorNilSafe: every method of a nil *Governor is a no-op with the
// permissive answer — the governor-off engine must be byte-identical.
func TestGovernorNilSafe(t *testing.T) {
	var g *Governor
	l := newFootprintLedger()
	l.set(1 << 20)
	g.NoteFailure(0)
	g.NoteSuccess(0)
	if !g.AllowIssue(l.Ledger, 0, false) {
		t.Fatal("nil governor must allow every issue")
	}
	if d := g.DeadlineFor(100, 50); d != 0 {
		t.Fatalf("nil DeadlineFor = %d, want 0 (no deadline)", d)
	}
	if s := g.ShedSet(l.Ledger, l.holder, 0); s != nil {
		t.Fatalf("nil ShedSet = %v", s)
	}
	if lvl := g.Level(l.Ledger, 0); lvl != PressureNormal {
		t.Fatalf("nil Level = %v", lvl)
	}
	if d := g.DegradedTime(0); d != 0 {
		t.Fatalf("nil DegradedTime = %v", d)
	}
}

// TestGovernorHysteresis drives the pressure signal through the bands with
// the ledger's footprint: escalation is immediate at the enter
// thresholds, de-escalation waits for the (higher) exit thresholds and steps
// one band at a time, so a flapping signal cannot flap the band.
func TestGovernorHysteresis(t *testing.T) {
	pool := testPool(t, 100) // FreeFraction 1.0 while untouched
	g := NewGovernor(pool)
	l := newFootprintLedger()

	if lvl := g.Level(l.Ledger, 0); lvl != PressureNormal {
		t.Fatalf("idle level = %v, want normal", lvl)
	}
	// Signal = 1.0 - retained/100. Push below PressuredEnter (0.25).
	l.set(80) // signal 0.20
	if lvl := g.Level(l.Ledger, 1); lvl != PressurePressured {
		t.Fatalf("signal 0.20 level = %v, want pressured", lvl)
	}
	// Recovering past the enter threshold but not the exit threshold must
	// NOT de-escalate (hysteresis).
	l.set(70) // signal 0.30 (> enter 0.25, < exit 0.35)
	if lvl := g.Level(l.Ledger, 2); lvl != PressurePressured {
		t.Fatalf("signal 0.30 level = %v, want still pressured", lvl)
	}
	l.set(60) // signal 0.40 > exit 0.35
	if lvl := g.Level(l.Ledger, 3); lvl != PressureNormal {
		t.Fatalf("signal 0.40 level = %v, want normal again", lvl)
	}
	// Escalation skips straight to critical when the signal collapses.
	l.set(95) // signal 0.05 < CriticalEnter 0.10
	if lvl := g.Level(l.Ledger, 4); lvl != PressureCritical {
		t.Fatalf("signal 0.05 level = %v, want critical", lvl)
	}
	// De-escalation is one band at a time: a signal that jumps all the way
	// back to healthy first passes through pressured.
	l.set(10) // signal 0.90
	if lvl := g.Level(l.Ledger, 5); lvl != PressurePressured {
		t.Fatalf("recovery from critical = %v, want pressured first", lvl)
	}
	if lvl := g.Level(l.Ledger, 6); lvl != PressureNormal {
		t.Fatalf("second recovery step = %v, want normal", lvl)
	}
	if g.Transitions() == 0 {
		t.Fatal("no transitions counted")
	}
}

// TestGovernorAllowIssueBands: normal admits everything, pressured admits
// only a session's first build, critical and degraded admit nothing.
func TestGovernorAllowIssueBands(t *testing.T) {
	pool := testPool(t, 100)
	g := NewGovernor(pool)
	l := newFootprintLedger()

	if !g.AllowIssue(l.Ledger, 0, false) || !g.AllowIssue(l.Ledger, 0, true) {
		t.Fatal("normal band must admit all issues")
	}
	l.set(80) // pressured
	if !g.AllowIssue(l.Ledger, 1, true) {
		t.Fatal("pressured band must admit a session's first build")
	}
	if g.AllowIssue(l.Ledger, 1, false) {
		t.Fatal("pressured band must refuse extra builds")
	}
	l.set(95) // critical
	if g.AllowIssue(l.Ledger, 2, true) || g.AllowIssue(l.Ledger, 2, false) {
		t.Fatal("critical band must refuse every issue")
	}
}

// TestGovernorShedRanking: under pressure the governor marks the
// lowest-benefit assets first, never a session's last one, and returns only
// the calling session's share.
func TestGovernorShedRanking(t *testing.T) {
	pool := testPool(t, 100)
	g := NewGovernor(pool)
	l := NewLedger(obs.NewRegistry(), false)
	a, b := l.NewHolder(), l.NewHolder()
	view := func(holder int, name string, cost sim.Duration) AssetKey {
		key := AssetKey{Scope: holder, Manip: name}
		l.Claim(key, holder, 0, 30)
		l.Ready(key, holder, name, cost)
		return key
	}

	// Session a: two retained builds, benefits 1s (cheap) and 9s (precious).
	cheap, precious := view(a, "cheap", secs(1)), view(a, "precious", secs(9))
	// Session b: one build only — protected however low its benefit. Ninety
	// pages in all: signal 1.0 - 0.90 = 0.10 → critical.
	only := view(b, "only", secs(0))

	shed := g.ShedSet(l, a, 0)
	if !shed[cheap] {
		t.Fatalf("lowest-benefit build not marked: %v", shed)
	}
	if shed[precious] {
		t.Fatal("session a's last remaining build was marked")
	}
	if g.ShedSet(l, b, 0)[only] {
		t.Fatal("session b's single build was marked")
	}
	// The caller only ever receives its own marks.
	if len(shed) != 1 {
		t.Fatalf("caller received foreign marks: %v", shed)
	}
}

// TestGovernorDeadlineFor: deadlines are 4× the cost estimate from now, and
// absent (0) for unscored manipulations.
func TestGovernorDeadlineFor(t *testing.T) {
	g := NewGovernor(testPool(t, 10))
	now := sim.Time(secs(100))
	if d := g.DeadlineFor(now, secs(2)); d != now.Add(secs(8)) {
		t.Fatalf("DeadlineFor = %v, want now+8s", d)
	}
	if d := g.DeadlineFor(now, 0); d != 0 {
		t.Fatal("unscored manipulation must get no deadline")
	}
}

// TestGlobalBreakerNilReceiverIsClosed: a nil governor's breaker never
// trips, never reports degraded and banks no degraded time, whatever
// outcomes it is fed.
func TestGlobalBreakerNilReceiverIsClosed(t *testing.T) {
	var g *Governor
	g.AttachMetrics(obs.NewRegistry())
	l := newFootprintLedger()
	for i := range 24 {
		g.NoteFailure(sim.Time(secs(i)))
	}
	g.NoteSuccess(sim.Time(secs(24)))
	if g.Level(l.Ledger, sim.Time(secs(25))) == PressureDegraded {
		t.Fatal("nil governor reports degraded")
	}
	if !g.AllowIssue(l.Ledger, sim.Time(secs(25)), false) {
		t.Fatal("nil governor refused an issue after failures")
	}
	if d := g.DegradedTime(sim.Time(secs(25))); d != 0 {
		t.Fatalf("nil governor banked degraded time %v", d)
	}
}

// TestGlobalBreakerTripAndRecover: the engine-wide breaker trips on a
// systemic failure rate, overlays the degraded band, refuses to re-trip
// while open, banks degraded time, and closes after the cooldown.
func TestGlobalBreakerTripAndRecover(t *testing.T) {
	g := NewGovernor(testPool(t, 100))
	reg := obs.NewRegistry()
	g.AttachMetrics(reg)
	opened := reg.Counter("gbreaker.opened")
	l := newFootprintLedger()

	now := sim.Time(0)
	for i := range 11 {
		g.NoteFailure(now.Add(secs(i)))
	}
	if g.Level(l.Ledger, now.Add(secs(10))) == PressureDegraded {
		t.Fatal("breaker tripped below 12 samples")
	}
	g.NoteSuccess(now.Add(secs(11)))
	at := now.Add(secs(12))
	g.NoteFailure(at) // 12 fails / 13 samples ≥ 0.5 → trip
	if lvl := g.Level(l.Ledger, at); lvl != PressureDegraded {
		t.Fatalf("open breaker level = %v, want degraded", lvl)
	}
	if g.AllowIssue(l.Ledger, at, true) {
		t.Fatal("degraded mode must refuse every issue")
	}
	// Outcomes reported while open must not extend or re-trip.
	g.NoteFailure(at.Add(secs(10)))
	if opened.Value() != 1 {
		t.Fatalf("gbreaker.opened = %d, want 1", opened.Value())
	}
	// The 60 s cooldown passes: closed again, degraded time banked.
	later := at.Add(secs(61))
	if g.Level(l.Ledger, later) == PressureDegraded {
		t.Fatal("level still degraded after the cooldown")
	}
	if d := g.DegradedTime(later); d != secs(61) {
		t.Fatalf("DegradedTime = %v, want 61s", d)
	}
}

// TestGlobalBreakerTripCooldownAndMetrics: the degraded band trips on a
// systemic failure rate once a window holds 12 outcomes, refuses every
// issue, neither re-trips nor extends while open, measures its open span to
// now, closes on the first query at its 60 s cooldown, banks exactly that
// span, and mirrors each transition into the gbreaker counters.
func TestGlobalBreakerTripCooldownAndMetrics(t *testing.T) {
	g := NewGovernor(testPool(t, 100))
	reg := obs.NewRegistry()
	g.AttachMetrics(reg)
	opened, closed := reg.Counter("gbreaker.opened"), reg.Counter("gbreaker.closed")
	l := newFootprintLedger()
	degraded := func(at sim.Time) bool { return g.Level(l.Ledger, at) == PressureDegraded }

	// Eleven outcomes, all but five failed: a rate far past 0.5, but fewer
	// than the 12 samples a trip needs.
	now := sim.Time(0)
	for i := range 5 {
		g.NoteSuccess(now.Add(secs(i)))
	}
	for i := 5; i < 10; i++ {
		g.NoteFailure(now.Add(secs(i)))
	}
	g.NoteSuccess(now.Add(secs(10)))
	if degraded(now.Add(secs(10))) {
		t.Fatal("degraded below 12 samples")
	}
	at := now.Add(secs(11))
	g.NoteFailure(at) // 6 fails / 12 samples ≥ 0.5
	if !degraded(at) {
		t.Fatal("no trip at a 50% failure rate over 12 samples")
	}
	if g.AllowIssue(l.Ledger, at, true) {
		t.Fatal("degraded mode must refuse every issue")
	}
	if opened.Value() != 1 || closed.Value() != 0 {
		t.Fatalf("metrics after trip: opened=%d closed=%d, want 1/0", opened.Value(), closed.Value())
	}

	// Outcomes while open neither re-trip nor reset the cooldown.
	for i := range 12 {
		g.NoteFailure(at.Add(secs(i)))
	}
	g.NoteSuccess(at.Add(secs(12)))
	if opened.Value() != 1 {
		t.Fatalf("gbreaker.opened = %d, want 1", opened.Value())
	}
	if d := g.DegradedTime(at.Add(secs(10))); d != secs(10) {
		t.Fatalf("mid-cooldown DegradedTime = %v, want 10s", d)
	}
	if !degraded(at.Add(secs(59))) {
		t.Fatal("closed before its 60 s cooldown")
	}
	later := at.Add(secs(60))
	if degraded(later) {
		t.Fatal("still degraded after the full cooldown")
	}
	if closed.Value() != 1 {
		t.Fatalf("gbreaker.closed = %d, want 1", closed.Value())
	}
	if d := g.DegradedTime(later.Add(secs(5))); d != secs(60) {
		t.Fatalf("banked DegradedTime = %v, want exactly the 60s cooldown", d)
	}
}

// TestGlobalBreakerWindowRollDropsStaleSamples: samples from a window that
// has ended do not combine with a later one into a trip.
func TestGlobalBreakerWindowRollDropsStaleSamples(t *testing.T) {
	g := NewGovernor(testPool(t, 100))
	l := newFootprintLedger()
	for i := range 11 {
		g.NoteFailure(sim.Time(secs(i)))
	}
	// The 12th outcome lands 30 s into the window, so the window has rolled.
	at := sim.Time(secs(30))
	g.NoteFailure(at)
	if g.Level(l.Ledger, at) == PressureDegraded || g.DegradedTime(at) != 0 {
		t.Fatal("stale failures outside the window tripped the breaker")
	}
}

// TestGovernorMetricsAndNames: band names are stable (they appear in spans
// and test output), AttachMetrics mirrors level/transition state into the
// registry.
func TestGovernorMetricsAndNames(t *testing.T) {
	names := map[PressureLevel]string{
		PressureNormal:    "normal",
		PressurePressured: "pressured",
		PressureCritical:  "critical",
		PressureDegraded:  "degraded",
		PressureLevel(99): "unknown",
	}
	for l, want := range names {
		if l.String() != want {
			t.Fatalf("PressureLevel(%d).String() = %q, want %q", int(l), l.String(), want)
		}
	}

	pool := testPool(t, 100)
	g := NewGovernor(pool)
	reg := obs.NewRegistry()
	g.AttachMetrics(reg)
	var nilGov *Governor
	nilGov.AttachMetrics(reg) // must not panic

	// Drive the signal into critical and read the band back through the
	// attached gauge and transition counter.
	l := newFootprintLedger()
	l.set(95)
	now := sim.Time(0)
	if lvl := g.Level(l.Ledger, now); lvl != PressureCritical {
		t.Fatalf("level = %v, want critical", lvl)
	}
	if v := reg.Gauge("governor.level").Value(); v != float64(PressureCritical) {
		t.Fatalf("governor.level gauge = %v, want %v", v, float64(PressureCritical))
	}
	if reg.Counter("governor.transitions").Value() == 0 {
		t.Fatal("governor.transitions counter never incremented")
	}
}
