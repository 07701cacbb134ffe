package core

import (
	"sync"
	"time"

	"specdb/internal/buffer"
	"specdb/internal/obs"
	"specdb/internal/sim"
)

// PressureLevel is the governor's resource-pressure band (DESIGN.md §13).
// Levels are ordered: a higher level is a worse condition.
type PressureLevel int

const (
	// PressureNormal: speculation runs unrestricted.
	PressureNormal PressureLevel = iota
	// PressurePressured: only each session's single paper-guaranteed
	// manipulation may issue; extra worker slots stay empty and the
	// lowest-benefit outstanding extras are shed.
	PressurePressured
	// PressureCritical: no new speculation issues at all and shedding digs
	// deeper, but each session keeps its last outstanding build.
	PressureCritical
	// PressureDegraded: the global circuit breaker is open — systemic fault
	// rates, not pool pressure, forced speculation off engine-wide. Measured
	// statements keep answering.
	PressureDegraded
)

// String names the band for spans, gauges, and test output.
func (l PressureLevel) String() string {
	switch l {
	case PressureNormal:
		return "normal"
	case PressurePressured:
		return "pressured"
	case PressureCritical:
		return "critical"
	case PressureDegraded:
		return "degraded"
	default:
		return "unknown"
	}
}

// The governor's hysteresis thresholds act on the pressure signal: the pool's
// claimable free fraction minus the fraction of capacity the engine's
// speculation currently retains. An enter threshold moves the band up as the
// signal falls below it; a band is left again only once the signal recovers
// past its (higher) exit threshold, so transitions do not flap.
const (
	pressuredEnter = 0.25
	pressuredExit  = 0.35
	criticalEnter  = 0.10
	criticalExit   = 0.20
	// deadlineFactor is the stuck-job watchdog's k: a build still running at
	// an event boundary past k× its cost estimate is aborted
	// (DeadlineExceeded). Deadlines cannot be disabled while a governor is
	// installed — an unkillable stuck build is exactly the failure mode the
	// governor exists for.
	deadlineFactor = 4
)

// The global breaker behind the degraded band samples speculative outcomes in
// fixed windows of gbreakerWindow sim time. It trips once a window holds at
// least gbreakerMinSamples outcomes — a single early failure must not take the
// whole engine degraded — of which at least gbreakerFailureRate failed, and
// stays open until the first band query gbreakerCooldown later. There is no
// half-open probe: while degraded no speculative work runs that could be one.
const (
	gbreakerWindow      = 30 * time.Second
	gbreakerMinSamples  = 12
	gbreakerFailureRate = 0.5
	gbreakerCooldown    = 60 * time.Second
)

// Governor is the engine-wide resource-pressure layer above the speculators'
// worker gate and per-session budgets (DESIGN.md §13). At event boundaries
// sessions ask it which of their builds to shed (benefit-ascending, never a
// session's last) and whether new issues are allowed; what is in flight and
// held it reads from the Ledger they hand it, and keeps only its band and the
// global breaker's state. All decisions are driven by the callers' sim-clocks,
// the ledger and the pool's exact headroom — never wall time — so governed
// runs stay deterministic per timeline.
//
// Every method is nil-receiver safe and a *Governor field left nil (the
// default) changes no decision anywhere: governor-off runs are byte-identical
// to the pre-governor engine.
type Governor struct {
	mu   sync.Mutex
	pool *buffer.Pool

	level       PressureLevel // pool-pressure band (degraded is overlaid, not stored)
	transitions int

	// The global breaker: the current sampling window, anchored at winStart
	// (a sample past its end starts the next), and whether the degraded band
	// is open, since when, and the sim time it spent open in closed spans.
	winStart     sim.Time
	fails, total int
	open         bool
	openedAt     sim.Time
	degraded     sim.Duration

	obsLevel       *obs.Gauge
	obsTransitions *obs.Counter
	obsShedMarked  *obs.Counter
	obsOpened      *obs.Counter
	obsClosed      *obs.Counter
}

// NewGovernor builds a governor over pool.
func NewGovernor(pool *buffer.Pool) *Governor { return &Governor{pool: pool} }

// AttachMetrics mirrors governor state into reg under "governor.*" and the
// global breaker's transitions under "gbreaker.*". Call it before the
// governor is handed to a session.
func (g *Governor) AttachMetrics(reg *obs.Registry) {
	if g == nil {
		return
	}
	g.obsLevel = reg.Gauge("governor.level")
	g.obsTransitions = reg.Counter("governor.transitions")
	g.obsShedMarked = reg.Counter("governor.shed_marked")
	g.obsOpened = reg.Counter("gbreaker.opened")
	g.obsClosed = reg.Counter("gbreaker.closed")
}

// NoteFailure feeds one failed speculative outcome at sim-time now to the
// global breaker; NoteSuccess feeds a successful one. Session breakers see
// the same events independently: the global breaker trips on the failure
// *rate* across all sessions, not on any one session's streak. Outcomes
// reported while degraded are dropped — work that was in flight neither
// re-trips the breaker nor extends its cooldown.
func (g *Governor) NoteFailure(now sim.Time) {
	if g == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.sampleLocked(now) {
		return
	}
	g.fails++
	if g.total >= gbreakerMinSamples && float64(g.fails) >= gbreakerFailureRate*float64(g.total) {
		g.open = true
		g.openedAt = now
		g.fails, g.total = 0, 0
		g.obsOpened.Inc()
	}
}

// NoteSuccess records one successful speculative outcome.
func (g *Governor) NoteSuccess(now sim.Time) {
	if g == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.sampleLocked(now)
}

// sampleLocked counts one outcome at now into the sampling window, first
// closing a cooled-down breaker, and reports false, counting nothing, while
// the breaker stays open. A sample at or past the window's end starts a new
// window. Sessions feed stamps from their own clocks, so now may lag
// winStart; a lagging sample counts into the current window.
func (g *Governor) sampleLocked(now sim.Time) bool {
	if g.closeIfCooledLocked(now); g.open {
		return false
	}
	if now.Sub(g.winStart) >= gbreakerWindow {
		g.winStart = now
		g.fails, g.total = 0, 0
	}
	g.total++
	return true
}

// closeIfCooledLocked closes the breaker once the cooldown has elapsed at
// now, banking the open span into the degraded time.
func (g *Governor) closeIfCooledLocked(now sim.Time) {
	if !g.open || now.Sub(g.openedAt) < gbreakerCooldown {
		return
	}
	g.degraded += now.Sub(g.openedAt)
	g.open = false
	g.winStart = now
	g.fails, g.total = 0, 0
	g.obsClosed.Inc()
}

// DeadlineFor stamps the watchdog deadline for a job issued at now with cost
// estimate est: now + deadlineFactor×est. Zero (no deadline) without a
// governor or without an estimate.
func (g *Governor) DeadlineFor(now sim.Time, est sim.Duration) sim.Time {
	if g == nil || est <= 0 {
		return 0
	}
	return now.Add(sim.Duration(deadlineFactor * float64(est)))
}

// AllowIssue reports whether a session may issue a new speculative job at
// sim-time now; first says whether it would be the session's only
// outstanding one. Pressured keeps the paper-guaranteed first build and
// refuses extras; critical and degraded refuse everything.
func (g *Governor) AllowIssue(l *Ledger, now sim.Time, first bool) bool {
	switch lvl, _ := g.band(l, now); lvl {
	case PressureNormal:
		return true
	case PressurePressured:
		return first
	default:
		return false
	}
}

// Level reports the current pressure band at sim-time now.
func (g *Governor) Level(l *Ledger, now sim.Time) PressureLevel {
	lvl, _ := g.band(l, now)
	return lvl
}

// Transitions reports how many band changes the governor has gone through.
func (g *Governor) Transitions() int {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.transitions
}

// DegradedTime reports the total sim-time spent degraded, the span still
// open measured to now.
func (g *Governor) DegradedTime(now sim.Time) sim.Duration {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	d := g.degraded
	if g.open {
		if cur := now.Sub(g.openedAt); cur > 0 {
			d += cur
		}
	}
	return d
}

// band moves the band to where the pressure signal puts it and returns it
// with the signal: the pool's claimable free fraction minus the fraction of
// capacity the engine's whole speculative appetite — every holding in the
// ledger, in flight or retained — would claim. The signal goes negative when
// the appetite exceeds the pool outright: speculative pages the pool would
// have to evict for foreground work are pressure even while frames are
// technically free. Sustained negative signal is survivable because both
// tiers are sheddable; the bands converge on an engine-wide footprint the pool
// can actually host, or — when even one build per session is more than the
// pool (a hopelessly undersized deployment) — settle at critical with
// speculation throttled to the paper-guaranteed minimum.
//
// Escalation follows the enter thresholds immediately; de-escalation happens
// one band at a time and only once the signal clears the band's exit
// threshold. An open global breaker overlays the degraded band on whichever
// pool band holds; the first query past its cooldown closes it.
func (g *Governor) band(l *Ledger, now sim.Time) (PressureLevel, float64) {
	if g == nil {
		return PressureNormal, 0
	}
	sig := 0.0
	if capacity := g.pool.Capacity(); capacity > 0 {
		// Read before taking g.mu: the two locks never nest.
		sig = g.pool.FreeFraction() - float64(l.Footprint())/float64(capacity)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	target := PressureNormal
	if sig < pressuredEnter {
		target = PressurePressured
	}
	if sig < criticalEnter {
		target = PressureCritical
	}
	if target < g.level {
		switch g.level {
		case PressureCritical:
			if sig < criticalExit {
				target = PressureCritical
			} else {
				// De-escalation steps one band at a time: even a fully
				// recovered signal passes through pressured before normal,
				// so a shed-induced spike can't whipsaw straight back to
				// unrestricted issuing.
				target = PressurePressured
			}
		case PressurePressured:
			if sig < pressuredExit {
				target = PressurePressured
			}
		}
	}
	if target != g.level {
		g.level = target
		g.transitions++
		g.obsTransitions.Inc()
	}
	g.obsLevel.Set(float64(g.level))
	if g.closeIfCooledLocked(now); g.open {
		return PressureDegraded, sig
	}
	return g.level, sig
}

// ShedSet returns the ledger entries holder should let go of at sim-time now —
// in-flight builds and retained completed materializations alike. Under
// pressure it ranks EVERY holding across all sessions lowest-worth-first
// (Cost⊆(m)) and marks them until enough pages are covered to lift the signal
// past the current band's exit threshold — but never a session's last asset,
// which the paper's single-manipulation convention guarantees. Only the
// caller's subset is returned (a session can only drop under its own lock);
// other sessions shed their share at their own next event, and the marking is
// recomputed from the ledger each call, so pressure that persists keeps being
// worked down.
func (g *Governor) ShedSet(l *Ledger, holder int, now sim.Time) map[AssetKey]bool {
	lvl, sig := g.band(l, now)
	if lvl < PressurePressured {
		return nil
	}
	capacity := g.pool.Capacity()
	need := capacity // degraded: work the backlog all the way down
	if lvl != PressureDegraded {
		exit := pressuredExit
		if lvl == PressureCritical {
			exit = criticalExit
		}
		short := exit - sig
		if short <= 0 {
			return nil
		}
		need = int(short*float64(capacity)) + 1
	}

	ranked := l.Holdings()
	remaining := make(map[int]int)
	for _, h := range ranked {
		remaining[h.Holder]++
	}

	var mine map[AssetKey]bool
	for _, h := range ranked {
		if need <= 0 {
			break
		}
		if remaining[h.Holder] <= 1 {
			continue // the session's single paper-guaranteed build
		}
		remaining[h.Holder]--
		need -= h.Pages
		if h.Pages <= 0 {
			need-- // unscored builds still occupy a worker; make progress
		}
		g.obsShedMarked.Inc()
		if h.Holder == holder {
			if mine == nil {
				mine = make(map[AssetKey]bool)
			}
			mine[h.Key] = true
		}
	}
	return mine
}
