package fault

import (
	"time"

	"specdb/internal/obs"
	"specdb/internal/sim"
)

// BreakerState is the circuit breaker's position.
type BreakerState int

const (
	// BreakerClosed: operations flow normally.
	BreakerClosed BreakerState = iota
	// BreakerOpen: operations are suppressed until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen: one probe operation is in flight; its outcome decides
	// whether the breaker closes again or re-opens.
	BreakerHalfOpen
)

// String names the state for spans and errors.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// A Breaker trips open after breakerFailures consecutive failures and lets one
// half-open probe through breakerCooldown of sim time (not wall time) later.
const (
	breakerFailures = 3
	breakerCooldown = 30 * time.Second
)

// Breaker is a per-session circuit breaker over speculation, driven entirely
// by the session's simulated clock: deterministic, never reading wall time.
// It is not internally locked — the owning speculator already serializes all
// calls under the session lock.
type Breaker struct {
	state    BreakerState
	failures int // consecutive failures while closed
	openedAt sim.Time

	// Shared counters (nil until AttachMetrics): breaker.opened /
	// breaker.closed / breaker.probes across all sessions of one engine.
	opened, closed, probes *obs.Counter
}

// NewBreaker returns a closed breaker.
func NewBreaker() *Breaker { return &Breaker{} }

// AttachMetrics mirrors state transitions into reg under "breaker.*".
func (b *Breaker) AttachMetrics(reg *obs.Registry) {
	b.opened = reg.Counter("breaker.opened")
	b.closed = reg.Counter("breaker.closed")
	b.probes = reg.Counter("breaker.probes")
}

// State reports the current position (after any cooldown-driven transition
// would apply on the next Allow call; State itself never transitions).
func (b *Breaker) State() BreakerState { return b.state }

// Allow reports whether a new operation may start at sim-time now. While
// open, the first call after the cooldown moves to half-open and admits a
// single probe; further calls are rejected until the probe resolves.
func (b *Breaker) Allow(now sim.Time) bool {
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if now.Sub(b.openedAt) >= breakerCooldown {
			b.state = BreakerHalfOpen
			b.probes.Inc()
			return true
		}
		return false
	default: // BreakerHalfOpen: the probe is in flight
		return false
	}
}

// Failure records a failed operation; it reports whether this call tripped
// the breaker open. A failed half-open probe re-opens immediately and
// restarts the cooldown.
func (b *Breaker) Failure(now sim.Time) (tripped bool) {
	b.failures++
	if b.state == BreakerHalfOpen || (b.state == BreakerClosed && b.failures >= breakerFailures) {
		b.state = BreakerOpen
		b.openedAt = now
		b.failures = 0
		b.opened.Inc()
		return true
	}
	return false
}

// Success records a completed operation; it reports whether this call closed
// a previously open/half-open breaker (i.e. speculation resumed).
func (b *Breaker) Success() (resumed bool) {
	b.failures = 0
	if b.state == BreakerClosed {
		return false
	}
	b.state = BreakerClosed
	b.closed.Inc()
	return true
}

// Canceled records that the in-flight operation ended without a verdict
// (e.g. the half-open probe was canceled at GO). The breaker re-opens and
// waits out another cooldown rather than wedging in half-open forever.
func (b *Breaker) Canceled(now sim.Time) {
	if b.state == BreakerHalfOpen {
		b.state = BreakerOpen
		b.openedAt = now
		b.opened.Inc()
	}
}
