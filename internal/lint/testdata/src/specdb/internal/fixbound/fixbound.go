// Package fixbound is a speclint test fixture: retry/wait loops that consume
// typed-transient faults or advance the sim clock, with and without a
// compile-visible bound.
package fixbound

import (
	"specdb/internal/fault"
	"specdb/internal/sim"
)

const maxRetries = 3

// unboundedRetry spins on transient faults forever: flagged.
func unboundedRetry(try func() error) error {
	for {
		err := try()
		if !fault.IsTransient(err) {
			return err
		}
	}
}

// unboundedWait advances the clock with no deadline: flagged.
func unboundedWait(c *sim.Clock, ready func() bool) {
	for !ready() {
		c.AdvanceTo(c.Now().Add(1))
	}
}

// unboundedInjectorSpin re-rolls an injector fault forever: flagged.
func unboundedInjectorSpin(inj *fault.Injector) {
	for {
		if inj.ReadFault(1) == nil {
			return
		}
	}
}

// condCap bounds the retries with a constant in the condition: clean.
func condCap(try func() error) error {
	var err error
	for attempt := 0; attempt <= maxRetries; attempt++ {
		if err = try(); !fault.IsTransient(err) {
			return err
		}
	}
	return err
}

// bodyCap bounds the retries with a constant comparison in the body: clean.
func bodyCap(try func() error) error {
	for attempt := 0; ; attempt++ {
		if attempt >= maxRetries {
			return nil
		}
		if err := try(); !fault.IsTransient(err) {
			return err
		}
	}
}

// deadline bounds the wait with a sim.Time comparison: clean.
func deadline(c *sim.Clock, until sim.Time) {
	for c.Now() < until {
		c.AdvanceTo(c.Now().Add(1))
	}
}

// drain bounds the loop on a shrinking structure via len: clean.
func drain(c *sim.Clock, pending []sim.Time) {
	for len(pending) > 0 {
		c.AdvanceTo(pending[0])
		pending = pending[1:]
	}
}

// ranged iterates a finite collection: range loops are exempt.
func ranged(c *sim.Clock, steps []sim.Duration) {
	for _, d := range steps {
		c.AdvanceTo(c.Now().Add(d))
	}
}

// annotated documents why the spin is acceptable: suppressed.
func annotated(try func() error) {
	//speclint:allow bounded -- fixture: the try stub is proven to fail at most once
	for {
		if err := try(); !fault.IsTransient(err) {
			return
		}
	}
}

// plainLoop never touches faults or the clock: out of scope.
func plainLoop(n int) int {
	total := 0
	for {
		total++
		if total > n {
			return total
		}
	}
}
