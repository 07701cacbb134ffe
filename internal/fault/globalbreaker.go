package fault

import (
	"sync"
	"time"

	"specdb/internal/obs"
	"specdb/internal/sim"
)

// A GlobalBreaker samples outcomes in fixed windows of gbreakerWindow sim
// time. It trips once a window holds at least gbreakerMinSamples outcomes —
// a single early failure must not take the whole engine degraded — of which
// at least gbreakerFailureRate failed, and stays open (speculation-off
// degraded mode) until the first state query gbreakerCooldown later.
const (
	gbreakerWindow      = 30 * time.Second
	gbreakerMinSamples  = 12
	gbreakerFailureRate = 0.5
	gbreakerCooldown    = 60 * time.Second
)

// GlobalBreaker is the engine-wide circuit breaker layered above the
// per-session Breakers (DESIGN.md §13). Per-session breakers react to one
// session's consecutive failures; the global breaker watches the *systemic*
// fault rate across every session sharing the engine and, when it trips,
// forces speculation-off degraded mode everywhere while measured statements
// keep answering. It is mutex-locked because concurrent sessions feed it
// outcomes; all decisions are driven by sim-time stamps carried in by the
// callers, never by wall time.
//
// Unlike the per-session breaker there is no half-open probe: recovery is
// purely cooldown-driven, because while degraded no speculative work runs
// that could serve as a probe.
type GlobalBreaker struct {
	mu sync.Mutex

	// Current sampling window. Outcomes are bucketed into fixed windows
	// anchored at winStart; a sample past the window end resets it.
	winStart sim.Time
	fails    int
	total    int

	open     bool
	openedAt sim.Time
	trips    int
	degraded sim.Duration // accumulated time spent open (closed spans)

	opened, closed *obs.Counter
}

// NewGlobalBreaker returns a closed global breaker.
func NewGlobalBreaker() *GlobalBreaker { return &GlobalBreaker{} }

// AttachMetrics mirrors transitions into reg under "gbreaker.*".
func (b *GlobalBreaker) AttachMetrics(reg *obs.Registry) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.opened = reg.Counter("gbreaker.opened")
	b.closed = reg.Counter("gbreaker.closed")
}

// Failure records one failed speculative outcome at sim-time now and reports
// whether this call tripped the breaker into degraded mode.
func (b *GlobalBreaker) Failure(now sim.Time) (tripped bool) {
	if b == nil {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.maybeCloseLocked(now); b.open {
		return false // already degraded; outcomes of in-flight work don't re-trip
	}
	b.sampleLocked(now)
	b.fails++
	b.total++
	if b.total >= gbreakerMinSamples &&
		float64(b.fails) >= gbreakerFailureRate*float64(b.total) {
		b.open = true
		b.openedAt = now
		b.trips++
		b.fails, b.total = 0, 0
		b.opened.Inc()
		return true
	}
	return false
}

// Success records one successful speculative outcome at sim-time now.
func (b *GlobalBreaker) Success(now sim.Time) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.maybeCloseLocked(now); b.open {
		return
	}
	b.sampleLocked(now)
	b.total++
}

// Open reports whether the breaker is in degraded mode at sim-time now; the
// first query at or past the cooldown deadline closes it.
func (b *GlobalBreaker) Open(now sim.Time) bool {
	if b == nil {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.maybeCloseLocked(now)
	return b.open
}

// Trips reports how many times the breaker has tripped open.
func (b *GlobalBreaker) Trips() int {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips
}

// DegradedTime reports the total sim-time spent in degraded mode, including
// the currently open span (measured to now) if any.
func (b *GlobalBreaker) DegradedTime(now sim.Time) sim.Duration {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	d := b.degraded
	if b.open {
		if cur := now.Sub(b.openedAt); cur > 0 {
			d += cur
		}
	}
	return d
}

// maybeCloseLocked closes the breaker when the cooldown has elapsed,
// banking the open span into the degraded-time total.
func (b *GlobalBreaker) maybeCloseLocked(now sim.Time) {
	if !b.open || now.Sub(b.openedAt) < gbreakerCooldown {
		return
	}
	b.degraded += now.Sub(b.openedAt)
	b.open = false
	b.winStart = now
	b.fails, b.total = 0, 0
	b.closed.Inc()
}

// sampleLocked rolls the sampling window forward when now has moved past it.
// Sessions feed time stamps from independent per-session clocks, so now may
// lag winStart; lagging samples are simply counted into the current window.
func (b *GlobalBreaker) sampleLocked(now sim.Time) {
	if now.Sub(b.winStart) >= gbreakerWindow {
		b.winStart = now
		b.fails, b.total = 0, 0
	}
}
