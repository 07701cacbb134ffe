// Package sim provides the deterministic simulated-time substrate used by the
// whole repository: a virtual clock and a cost meter that converts engine
// work counters (page I/O, tuples processed) into simulated durations.
//
// The engine executes queries for real — rows move through operators and the
// buffer pool really caches pages — but elapsed time is *accounted*, not
// measured, so every experiment is reproducible bit-for-bit. See DESIGN.md §4.
package sim

import (
	"fmt"
	"sync"
	"time"
)

// Time is a point on the simulated timeline. The zero Time is the start of a
// simulation run.
type Time int64 // nanoseconds, to reuse time.Duration arithmetic

// Duration is a span of simulated time.
type Duration = time.Duration

// Add returns t shifted forward by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t−u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds reports t as fractional seconds since the start of the run.
func (t Time) Seconds() float64 { return float64(t) / float64(time.Second) }

// String formats the time as seconds with millisecond precision.
func (t Time) String() string { return fmt.Sprintf("%.3fs", t.Seconds()) }

// FromSeconds converts fractional seconds to a simulated Time.
func FromSeconds(s float64) Time { return Time(s * float64(time.Second)) }

// DurationFromSeconds converts fractional seconds to a Duration.
func DurationFromSeconds(s float64) Duration { return Duration(s * float64(time.Second)) }

// Clock is a virtual clock. It only moves when AdvanceTo is called;
// nothing in the repository sleeps on it. A clock is owned by one session but
// may be read (Now) by observers on other goroutines, so access is guarded.
type Clock struct {
	mu  sync.Mutex
	now Time
}

// NewClock returns a clock positioned at the start of the timeline.
func NewClock() *Clock { return &Clock{} }

// Now reports the current simulated time.
func (c *Clock) Now() Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// AdvanceTo moves the clock forward to t. Moving backwards panics.
func (c *Clock) AdvanceTo(t Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t < c.now {
		// invariant: callers only advance to event times taken from the
		// future of this clock; a rewind means the harness reordered events.
		panic(fmt.Sprintf("sim: clock rewind from %v to %v", c.now, t))
	}
	c.now = t
}
