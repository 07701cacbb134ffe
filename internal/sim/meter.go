package sim

import (
	"sync/atomic"
	"time"
)

// CostRates converts engine work counters into simulated time. The default
// rates are calibrated (see EXPERIMENTS.md) so that query durations on the
// scaled TPC-H datasets land in the paper's bucket ranges: 3–13 s ("100 MB"),
// 15–65 s ("500 MB"), 30–140 s ("1 GB").
type CostRates struct {
	// PageRead is the simulated cost of one buffer-pool miss (a disk read).
	PageRead Duration
	// PageWrite is the simulated cost of writing one dirty page back.
	PageWrite Duration
	// Tuple is the simulated CPU cost of moving one tuple through one
	// operator.
	Tuple Duration
}

// DefaultRates models a ~2000-era disk and CPU at the repository's 1/20 data
// scale: scans dominated by I/O, joins by per-tuple work.
func DefaultRates() CostRates {
	return CostRates{
		PageRead:  18 * time.Millisecond,
		PageWrite: 20 * time.Millisecond,
		Tuple:     10 * time.Microsecond,
	}
}

// Work is a snapshot of accumulated engine work counters.
type Work struct {
	PageReads  int64 // buffer-pool misses serviced from "disk"
	PageWrites int64 // dirty pages written back
	Tuples     int64 // tuples processed across all operators
}

// Add returns the component-wise sum w+v.
func (w Work) Add(v Work) Work {
	return Work{
		PageReads:  w.PageReads + v.PageReads,
		PageWrites: w.PageWrites + v.PageWrites,
		Tuples:     w.Tuples + v.Tuples,
	}
}

// Sub returns the component-wise difference w−v.
func (w Work) Sub(v Work) Work {
	return Work{
		PageReads:  w.PageReads - v.PageReads,
		PageWrites: w.PageWrites - v.PageWrites,
		Tuples:     w.Tuples - v.Tuples,
	}
}

// Cost converts the work into simulated time under the given rates.
func (w Work) Cost(r CostRates) Duration {
	return Duration(w.PageReads)*r.PageRead +
		Duration(w.PageWrites)*r.PageWrite +
		Duration(w.Tuples)*r.Tuple
}

// Meter accumulates work counters. The engine makes one per statement: the
// statement's view of the buffer pool charges page I/O to it, its operators'
// tuples arrive in sums (exec.Context counts them and hands the count over
// wherever the meter can be read), the engine's own passes charge theirs in
// bulk, and the engine reads it around the statement's measure window to
// obtain the simulated duration. Nobody else charges a statement's meter, so
// per-statement accounting does not depend on what runs beside it. The zero
// value is ready to use.
//
// A statement runs on one goroutine and would need no atomics for itself. The
// counters are atomic because a meter is also what a pool charges by default
// (buffer.Pool.ChargeTo), and that target is shared by whoever fetches through
// the pool itself, from any goroutine.
type Meter struct {
	pageReads  atomic.Int64
	pageWrites atomic.Int64
	tuples     atomic.Int64
}

// NewMeter returns a zeroed meter.
func NewMeter() *Meter { return &Meter{} }

// ChargePageRead records n buffer-pool misses.
func (m *Meter) ChargePageRead(n int64) { m.pageReads.Add(n) }

// ChargePageWrite records n page write-backs.
func (m *Meter) ChargePageWrite(n int64) { m.pageWrites.Add(n) }

// ChargeTuples records n tuples processed.
func (m *Meter) ChargeTuples(n int64) { m.tuples.Add(n) }

// Snapshot reports the accumulated work so far.
func (m *Meter) Snapshot() Work {
	return Work{
		PageReads:  m.pageReads.Load(),
		PageWrites: m.pageWrites.Load(),
		Tuples:     m.tuples.Load(),
	}
}

// Since reports the work accumulated after the given snapshot.
func (m *Meter) Since(s Work) Work { return m.Snapshot().Sub(s) }
