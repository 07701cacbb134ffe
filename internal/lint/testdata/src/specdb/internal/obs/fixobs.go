// Package obs here is a speclint test fixture loaded under the logical path
// specdb/internal/obs, so the obspurity rule applies to it: it exercises
// forbidden meter charges and clock movement next to the sanctioned
// read-only uses of sim types.
package obs

import "specdb/internal/sim"

// Span mimics an obs span stamped with simulated time.
type Span struct {
	Start sim.Time
	End   sim.Time
}

// BadCharge charges the meter from observability code.
func BadCharge(m *sim.Meter) {
	m.ChargeTuples(1)
	m.ChargePageRead(1)
}

// BadAdvance moves the simulated clock from observability code.
func BadAdvance(c *sim.Clock) {
	c.AdvanceTo(c.Now().Add(1))
}

// GoodStamp only reads the clock — timestamps are byte-invisible.
func GoodStamp(c *sim.Clock, s *Span) {
	s.Start = c.Now()
	s.End = c.Now()
}
