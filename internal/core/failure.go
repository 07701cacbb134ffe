package core

import (
	"time"

	"specdb/internal/obs"
	"specdb/internal/sim"
)

// The failure policy (DESIGN.md §8): a failed manipulation backs the
// speculator off, is abandoned after maxManipAttempts failures, and strikes
// the session's breaker; the governor's degraded band (governor.go) counts
// the same outcomes engine-wide.

// maxManipAttempts bounds how often one manipulation (by key) may fail — at
// issue or at completion — before it is abandoned for the rest of the
// session. retryBackoff is the sim-time pause after a failure before the
// speculator issues anything again, doubling per earlier failure of the same
// manipulation: 2, 4 and 8 s, the third failure being the last.
const (
	maxManipAttempts = 3
	retryBackoff     = 2 * time.Second
)

// A session breaker trips open after breakerFailures consecutive failures and
// lets one half-open probe through breakerCooldown of sim time (not wall
// time) later.
const (
	breakerFailures = 3
	breakerCooldown = 30 * time.Second
)

// noteFailure records one contained manipulation failure: backoff before the
// next issue, abandonment after maxManipAttempts, and a breaker strike. A
// span marks the failure on the session timeline.
func (sp *Speculator) noteFailure(key string, now sim.Time, cause error) {
	count(sp, &sp.stats.Failed, 1)
	sp.failures[key]++
	n := sp.failures[key]
	if t := now.Add(retryBackoff << (n - 1)); t > sp.retryAt {
		sp.retryAt = t
	}
	if n == maxManipAttempts { // once: an abandoned key is never issued again
		count(sp, &sp.stats.Abandoned, 1)
	}
	if sp.breaker.failure(now) {
		count(sp, &sp.stats.BreakerTrips, 1)
	}
	// The same outcome feeds the engine-wide degraded band, which trips on
	// the systemic rate across all sessions (nil-safe no-op without a
	// governor).
	sp.cfg.Governor.NoteFailure(now)
	s := sp.eng.Tracer().Start("manip.failed", now, 0,
		obs.Attr{Key: "key", Value: key},
		obs.Attr{Key: "error", Value: cause.Error()})
	s.End(now)
}

// breakerState is a session breaker's position.
type breakerState int

const (
	// breakerClosed: speculation issues normally.
	breakerClosed breakerState = iota
	// breakerOpen: nothing issues until the cooldown elapses.
	breakerOpen
	// breakerHalfOpen: one probe job is in flight; its outcome decides
	// whether the breaker closes again or re-opens.
	breakerHalfOpen
)

// sessionBreaker is one speculator's circuit breaker, driven entirely by the
// session's simulated clock: deterministic, never reading wall time. It is
// not locked: the speculator serializes every call under the session lock.
// It reports each opening and closing to its caller, which counts them as
// Stats.BreakerTrips and BreakerResumes, mirrored as breaker.opened and
// breaker.closed; it counts only its probes itself.
type sessionBreaker struct {
	state    breakerState
	failures int // consecutive failures while closed
	openedAt sim.Time

	// probes is breaker.probes, shared by every session of one engine.
	probes *obs.Counter
}

// newSessionBreaker returns a closed breaker counting its probes in reg.
func newSessionBreaker(reg *obs.Registry) sessionBreaker {
	return sessionBreaker{probes: reg.Counter("breaker.probes")}
}

// allow reports whether a new job may start at sim-time now. While open, the
// first call after the cooldown moves to half-open and admits a single probe;
// further calls are refused until the probe resolves.
func (b *sessionBreaker) allow(now sim.Time) bool {
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if now.Sub(b.openedAt) >= breakerCooldown {
			b.state = breakerHalfOpen
			b.probes.Inc()
			return true
		}
		return false
	default: // breakerHalfOpen: the probe is in flight
		return false
	}
}

// failure records a failed job and reports whether it tripped the breaker
// open. A failed half-open probe re-opens at once and restarts the cooldown.
func (b *sessionBreaker) failure(now sim.Time) (tripped bool) {
	b.failures++
	if b.state == breakerHalfOpen || (b.state == breakerClosed && b.failures >= breakerFailures) {
		b.state = breakerOpen
		b.openedAt = now
		b.failures = 0
		return true
	}
	return false
}

// success records a completed job and reports whether it closed an open or
// half-open breaker (speculation resumed).
func (b *sessionBreaker) success() (resumed bool) {
	b.failures = 0
	if b.state == breakerClosed {
		return false
	}
	b.state = breakerClosed
	return true
}

// canceled records that the job in flight ended without a verdict (the
// half-open probe was canceled, shed or ran past its deadline) and reports
// whether that re-opened the breaker: it re-opens and waits out another
// cooldown rather than wedge half-open. The re-open is a trip like any other
// (DESIGN.md §8).
func (b *sessionBreaker) canceled(now sim.Time) (tripped bool) {
	if b.state != breakerHalfOpen {
		return false
	}
	b.state = breakerOpen
	b.openedAt = now
	return true
}
