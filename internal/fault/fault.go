// Package fault implements deterministic fault injection for the engine
// (DESIGN.md §8). An Injector draws per-operation fault decisions from a
// seeded sim.Rand, so a run with a given seed injects exactly the same faults
// on every execution, and a zero-rate (or nil) injector is bit-for-bit
// invisible: it never touches the meter, the clock, or any shared counter on
// the fault-free path. Crash kills a durable disk at a chosen write.
//
// The package deliberately knows nothing about the pool or the speculator; it
// only decides *whether* an operation fails and wraps storage.Disk to apply
// read/write decisions at the I/O boundary. Containment policy lives with the
// components that own the operations: the pool retries page I/O, and
// internal/core backs off, abandons and breaks speculation.
package fault

import (
	"errors"
	"fmt"
	"strconv"
	"sync"

	"specdb/internal/obs"
	"specdb/internal/sim"
	"specdb/internal/storage"
)

// Kind classifies an injected fault.
type Kind int

const (
	// ReadError makes a disk read fail with a transient error.
	ReadError Kind = iota
	// WriteError makes a disk write fail with a transient error.
	WriteError
	// Corruption lets a disk read succeed but flips bytes in the returned
	// page, to be caught by the pool's checksum verification.
	Corruption
	// SlowIO lets a disk read succeed but charges extra simulated latency
	// (applied by the pool, which owns the meter).
	SlowIO
	// FrameExhaustion makes a buffer-pool admission transiently fail as if
	// every frame were pinned.
	FrameExhaustion
)

// String names the fault kind for error messages and span attributes.
func (k Kind) String() string {
	switch k {
	case ReadError:
		return "read-error"
	case WriteError:
		return "write-error"
	case Corruption:
		return "corruption"
	case SlowIO:
		return "slow-io"
	case FrameExhaustion:
		return "frame-exhaustion"
	default:
		return fmt.Sprintf("fault.Kind(%d)", int(k))
	}
}

// Error is the typed error carried by every injected (or detected) fault.
// All injected faults are transient: retrying the operation redraws the
// fault decision.
type Error struct {
	Kind Kind
	Op   string // "read", "write", "admit", ...
	Page storage.PageID
}

func (e *Error) Error() string {
	return fmt.Sprintf("fault: injected %s on %s of page %d", e.Kind, e.Op, e.Page)
}

// IsTransient reports whether err is (or wraps) an injected/detected fault
// that is worth retrying. Real storage errors (unallocated page, size
// mismatch) are not transient and must never be masked by retries.
func IsTransient(err error) bool {
	var fe *Error
	return errors.As(err, &fe)
}

// Config sets per-operation fault probabilities. Rates are in [0, 1];
// the zero value disables injection entirely.
type Config struct {
	// Seed seeds the injector's private PRNG. With equal seeds and equal
	// operation sequences, two runs inject identical faults.
	Seed uint64
	// ReadErrorRate is the probability that a disk read fails.
	ReadErrorRate float64
	// WriteErrorRate is the probability that a disk write fails.
	WriteErrorRate float64
	// CorruptionRate is the probability that a disk read succeeds but
	// returns a corrupted page (detected by the pool's checksums).
	CorruptionRate float64
	// SlowIORate is the probability that a page miss costs
	// SlowIOPenaltyPages extra simulated page reads.
	SlowIORate float64
	// SlowIOPenaltyPages is the extra read charge for a slow I/O
	// (default 4 when SlowIORate > 0).
	SlowIOPenaltyPages int
	// FrameExhaustionRate is the probability that a pool admission
	// transiently finds no free frame.
	FrameExhaustionRate float64
}

// Enabled reports whether any fault rate is non-zero.
func (c Config) Enabled() bool {
	return c.ReadErrorRate > 0 || c.WriteErrorRate > 0 || c.CorruptionRate > 0 ||
		c.SlowIORate > 0 || c.FrameExhaustionRate > 0
}

// Injector draws deterministic fault decisions. Safe for concurrent use.
// Every (operation, page) pair owns a private PRNG stream derived from the
// seed, so the decision for the Nth read of page P is a pure function of
// (seed, P, N) — independent of how reads of other pages interleave. That
// keeps fault replay byte-identical whether pages are served by one pool
// shard or sixteen.
type Injector struct {
	mu      sync.Mutex
	seed    uint64
	streams map[string]*sim.Rand
	cfg     Config

	// disarmed suppresses injection without consuming PRNG draws, so a
	// load phase can run fault-free and the fault stream starts fresh —
	// and deterministically — when the injector is re-armed.
	disarmed bool

	// Counters are nil until AttachMetrics; injection never charges the
	// sim meter, and the counters are pure observation.
	obsReads, obsWrites, obsCorrupt, obsSlow, obsExhaust *obs.Counter
}

// NewInjector returns an injector for cfg, or nil if cfg injects nothing.
// A nil *Injector is valid and never injects, so callers need no guards.
func NewInjector(cfg Config) *Injector {
	if !cfg.Enabled() {
		return nil
	}
	if cfg.SlowIOPenaltyPages <= 0 {
		cfg.SlowIOPenaltyPages = 4
	}
	return &Injector{seed: cfg.Seed, streams: make(map[string]*sim.Rand), cfg: cfg}
}

// AttachMetrics mirrors injection decisions into reg under "fault.injected.*".
func (in *Injector) AttachMetrics(reg *obs.Registry) {
	if in == nil {
		return
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.obsReads = reg.Counter("fault.injected.read_errors")
	in.obsWrites = reg.Counter("fault.injected.write_errors")
	in.obsCorrupt = reg.Counter("fault.injected.corruptions")
	in.obsSlow = reg.Counter("fault.injected.slow_ios")
	in.obsExhaust = reg.Counter("fault.injected.frame_exhaustions")
}

// SetArmed enables or disables injection. A disarmed injector consumes no
// PRNG draws and injects nothing; injectors start armed.
func (in *Injector) SetArmed(on bool) {
	if in == nil {
		return
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.disarmed = !on
}

// stream returns the lazily created PRNG stream for one (op, page) pair.
// Callers hold in.mu.
func (in *Injector) stream(op string, id storage.PageID) *sim.Rand {
	label := op + "|" + strconv.FormatUint(uint64(id), 10)
	r, ok := in.streams[label]
	if !ok {
		r = sim.NewRandStream(in.seed, label)
		in.streams[label] = r
	}
	return r
}

// draw consumes one value from r and reports whether an event with
// probability rate fires. A disarmed injector consumes nothing, so the
// stream resumes deterministically on re-arm. Callers hold in.mu.
func (in *Injector) draw(r *sim.Rand, rate float64) bool {
	if in.disarmed || rate <= 0 {
		return false
	}
	return r.Float64() < rate
}

// ReadFault decides the fate of one disk read: a *Error of kind ReadError or
// Corruption, or nil for a clean read. Exactly one decision per call, so the
// PRNG stream advances identically across replays.
func (in *Injector) ReadFault(id storage.PageID) *Error {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	r := in.stream("read", id)
	if in.draw(r, in.cfg.ReadErrorRate) {
		in.obsReads.Inc()
		return &Error{Kind: ReadError, Op: "read", Page: id}
	}
	if in.draw(r, in.cfg.CorruptionRate) {
		in.obsCorrupt.Inc()
		return &Error{Kind: Corruption, Op: "read", Page: id}
	}
	return nil
}

// WriteFault decides the fate of one disk write.
func (in *Injector) WriteFault(id storage.PageID) *Error {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.draw(in.stream("write", id), in.cfg.WriteErrorRate) {
		in.obsWrites.Inc()
		return &Error{Kind: WriteError, Op: "write", Page: id}
	}
	return nil
}

// SlowIO reports whether one page miss is slow, and if so how many extra
// page reads to charge.
func (in *Injector) SlowIO(id storage.PageID) (extraPages int, slow bool) {
	if in == nil {
		return 0, false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.draw(in.stream("slow", id), in.cfg.SlowIORate) {
		in.obsSlow.Inc()
		return in.cfg.SlowIOPenaltyPages, true
	}
	return 0, false
}

// FrameExhaustion reports whether one pool admission transiently fails as if
// no frame were free.
func (in *Injector) FrameExhaustion(id storage.PageID) *Error {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.draw(in.stream("admit", id), in.cfg.FrameExhaustionRate) {
		in.obsExhaust.Inc()
		return &Error{Kind: FrameExhaustion, Op: "admit", Page: id}
	}
	return nil
}
