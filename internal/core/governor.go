package core

import (
	"sort"
	"sync"

	"specdb/internal/buffer"
	"specdb/internal/fault"
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

// GovernorConfig tunes a Governor. The hysteresis thresholds act on the
// pressure signal: the pool's claimable free fraction minus the fraction of
// capacity the engine's speculation currently retains. Enter thresholds move
// the band up as the signal falls; a band is only left again once the signal
// recovers past its (higher) exit threshold, so transitions do not flap.
type GovernorConfig struct {
	// PressuredEnter/PressuredExit bound the normal↔pressured transition
	// (defaults 0.25 / 0.35).
	PressuredEnter float64
	PressuredExit  float64
	// CriticalEnter/CriticalExit bound the pressured↔critical transition
	// (defaults 0.10 / 0.20).
	CriticalEnter float64
	CriticalExit  float64
	// DeadlineFactor is the stuck-job watchdog's k: a build still running at
	// an event boundary past k× its cost estimate is aborted
	// (DeadlineExceeded). <= 0 selects the default 4; deadlines cannot be
	// disabled while a governor is installed — an unkillable stuck build is
	// exactly the failure mode the governor exists for.
	DeadlineFactor float64
	// Breaker tunes the engine-wide circuit breaker (zero values select
	// fault.GlobalBreaker defaults).
	Breaker fault.GlobalBreakerConfig
}

// govJob is one registered speculative asset: an in-flight build
// (retained=false) or a completed materialization a session still holds
// (retained=true). Both are sheddable; they rank in one benefit order.
type govJob struct {
	benefit  sim.Duration
	pages    int
	retained bool
}

// Governor is the engine-wide resource-pressure layer above the scheduler
// and the per-session budgets (DESIGN.md §13). Sessions register their
// outstanding speculative jobs and retained footprints with it; at event
// boundaries they ask it which of their builds to shed (benefit-ascending,
// never a session's last) and whether new issues are allowed. All decisions
// are driven by the callers' sim-clocks and the pool's exact headroom —
// never wall time — so governed runs stay deterministic per timeline.
//
// Every method is nil-receiver safe and a *Governor field left nil (the
// default) changes no decision anywhere: governor-off runs are byte-identical
// to the pre-governor engine.
type Governor struct {
	mu      sync.Mutex
	cfg     GovernorConfig
	pool    *buffer.Pool
	breaker *fault.GlobalBreaker

	level  PressureLevel // pool-pressure band (degraded is overlaid, not stored)
	nextID int
	// jobs tracks outstanding speculative builds: session id → manipulation
	// key → footprint. retained tracks each session's reported retained
	// pages (outstanding + held materializations).
	jobs     map[int]map[string]govJob
	retained map[int]int

	transitions int

	obsLevel       *obs.Gauge
	obsTransitions *obs.Counter
	obsShedMarked  *obs.Counter
}

// NewGovernor builds a governor over pool with defaults filled in.
func NewGovernor(cfg GovernorConfig, pool *buffer.Pool) *Governor {
	if cfg.PressuredEnter <= 0 {
		cfg.PressuredEnter = 0.25
	}
	if cfg.PressuredExit <= cfg.PressuredEnter {
		cfg.PressuredExit = cfg.PressuredEnter + 0.10
	}
	if cfg.CriticalEnter <= 0 {
		cfg.CriticalEnter = 0.10
	}
	if cfg.CriticalExit <= cfg.CriticalEnter {
		cfg.CriticalExit = cfg.CriticalEnter + 0.10
	}
	if cfg.DeadlineFactor <= 0 {
		cfg.DeadlineFactor = 4
	}
	return &Governor{
		cfg:      cfg,
		pool:     pool,
		breaker:  fault.NewGlobalBreaker(cfg.Breaker),
		jobs:     make(map[int]map[string]govJob),
		retained: make(map[int]int),
	}
}

// AttachMetrics mirrors governor state into reg under "governor.*" and wires
// the global breaker's transition counters.
func (g *Governor) AttachMetrics(reg *obs.Registry) {
	if g == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.obsLevel = reg.Gauge("governor.level")
	g.obsTransitions = reg.Counter("governor.transitions")
	g.obsShedMarked = reg.Counter("governor.shed_marked")
	g.breaker.AttachMetrics(reg)
}

// Breaker exposes the engine-wide circuit breaker (tests/diagnostics).
func (g *Governor) Breaker() *fault.GlobalBreaker {
	if g == nil {
		return nil
	}
	return g.breaker
}

// Register admits one session to governance, returning its id.
func (g *Governor) Register() int {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.nextID++
	g.jobs[g.nextID] = make(map[string]govJob)
	return g.nextID
}

// Deregister withdraws a session (Shutdown): its jobs and retained footprint
// stop contributing to the pressure signal.
func (g *Governor) Deregister(id int) {
	if g == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	delete(g.jobs, id)
	delete(g.retained, id)
}

// Outstanding reports how many jobs are currently registered across all
// sessions. A quiesced engine (every session shut down or drained) reports
// zero — the chaos soak asserts exactly that.
func (g *Governor) Outstanding() int {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	n := 0
	for _, m := range g.jobs {
		n += len(m)
	}
	return n
}

// NoteIssue registers one issued job under the session.
func (g *Governor) NoteIssue(id int, key string, benefit sim.Duration, pages int) {
	if g == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if m := g.jobs[id]; m != nil {
		m[key] = govJob{benefit: benefit, pages: pages}
	}
}

// NoteRetained registers (or re-registers) a completed materialization the
// session keeps holding: it left the in-flight set but its pages remain a
// sheddable speculative asset until garbage collection, consumption at GO, or
// shutdown removes it (NoteTerminal). benefit is the build's Cost⊆(m) — the
// time a future query would save — which is exactly the shed ranking key.
func (g *Governor) NoteRetained(id int, key string, benefit sim.Duration, pages int) {
	if g == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if m := g.jobs[id]; m != nil {
		m[key] = govJob{benefit: benefit, pages: pages, retained: true}
	}
}

// NoteTerminal deregisters a job on any terminal transition (completed,
// canceled, aborted, shed, deadline-exceeded). Idempotent.
func (g *Governor) NoteTerminal(id int, key string) {
	if g == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if m := g.jobs[id]; m != nil {
		delete(m, key)
	}
}

// ReportRetained pushes a session's current retained speculative footprint
// (outstanding + held materializations, in estimated pages).
func (g *Governor) ReportRetained(id, pages int) {
	if g == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.retained[id] = pages
}

// NoteFailure feeds one failed speculative outcome to the global breaker;
// NoteSuccess feeds a successful one. Per-session breakers see the same
// events independently — the global breaker trips on the *rate* across all
// sessions, not on any one session's streak.
func (g *Governor) NoteFailure(now sim.Time) {
	if g == nil {
		return
	}
	g.breaker.Failure(now)
}

// NoteSuccess records one successful speculative outcome.
func (g *Governor) NoteSuccess(now sim.Time) {
	if g == nil {
		return
	}
	g.breaker.Success(now)
}

// DeadlineFor stamps the watchdog deadline for a job issued at now with cost
// estimate est: now + DeadlineFactor×est. Zero (no deadline) without a
// governor or without an estimate.
func (g *Governor) DeadlineFor(now sim.Time, est sim.Duration) sim.Time {
	if g == nil || est <= 0 {
		return 0
	}
	return now.Add(sim.Duration(g.cfg.DeadlineFactor * float64(est)))
}

// AllowIssue reports whether a session may issue a new speculative job at
// sim-time now; first says whether it would be the session's only
// outstanding one. Pressured keeps the paper-guaranteed first build and
// refuses extras; critical and degraded refuse everything.
func (g *Governor) AllowIssue(now sim.Time, first bool) bool {
	if g == nil {
		return true
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	switch g.levelLocked(now) {
	case PressureNormal:
		return true
	case PressurePressured:
		return first
	default:
		return false
	}
}

// Level reports the current pressure band at sim-time now.
func (g *Governor) Level(now sim.Time) PressureLevel {
	if g == nil {
		return PressureNormal
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.levelLocked(now)
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

// DegradedTime reports total sim-time spent with the global breaker open.
func (g *Governor) DegradedTime(now sim.Time) sim.Duration {
	if g == nil {
		return 0
	}
	return g.breaker.DegradedTime(now)
}

// signalLocked computes the pressure signal: the pool's claimable free
// fraction minus the fraction of capacity the engine's whole speculative
// appetite — every session's in-flight builds plus retained completed
// materializations, as reported via ReportRetained — would claim. The signal
// goes negative when the appetite exceeds the pool outright: speculative
// pages the pool would have to evict for foreground work are pressure even
// while frames are technically free. Sustained negative signal is survivable
// because both tiers are sheddable; the bands converge on an engine-wide
// footprint the pool can actually host, or — when even one build per session
// is more than the pool (a hopelessly undersized deployment) — settle at
// critical with speculation throttled to the paper-guaranteed minimum.
func (g *Governor) signalLocked() float64 {
	capacity := g.pool.Capacity()
	if capacity == 0 {
		return 0
	}
	spec := 0
	for _, pages := range g.retained {
		spec += pages // order-independent sum
	}
	return g.pool.FreeFraction() - float64(spec)/float64(capacity)
}

// levelLocked folds the breaker state over the hysteresis bands: escalation
// follows the enter thresholds immediately; de-escalation happens one band
// at a time and only once the signal clears the band's exit threshold.
func (g *Governor) levelLocked(now sim.Time) PressureLevel {
	sig := g.signalLocked()
	target := PressureNormal
	if sig < g.cfg.PressuredEnter {
		target = PressurePressured
	}
	if sig < g.cfg.CriticalEnter {
		target = PressureCritical
	}
	if target < g.level {
		switch g.level {
		case PressureCritical:
			if sig < g.cfg.CriticalExit {
				target = PressureCritical
			} else {
				// De-escalation steps one band at a time: even a fully
				// recovered signal passes through pressured before normal,
				// so a shed-induced spike can't whipsaw straight back to
				// unrestricted issuing.
				target = PressurePressured
			}
		case PressurePressured:
			if sig < g.cfg.PressuredExit {
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
	if g.breaker.Open(now) {
		return PressureDegraded
	}
	return g.level
}

// shedCandidate is one globally-rankable outstanding job.
type shedCandidate struct {
	id      int
	key     string
	benefit sim.Duration
	pages   int
}

// ShedSet returns the manipulation keys of session id's speculative assets —
// in-flight builds and retained completed materializations alike — the
// governor wants dropped at sim-time now. Under pressure it ranks EVERY
// registered asset across all sessions lowest-benefit-first (Cost⊆(m)) and
// marks them until enough pages are covered to lift the signal past the
// current band's exit threshold — but never a session's last asset, which the
// paper's single-manipulation convention guarantees. Only the caller's subset
// is returned (a session can only drop under its own lock); other sessions
// shed their share at their own next event, and the marking is recomputed
// from live state each call, so pressure that persists keeps being worked
// down.
func (g *Governor) ShedSet(id int, now sim.Time) map[string]bool {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	lvl := g.levelLocked(now)
	if lvl < PressurePressured {
		return nil
	}
	capacity := g.pool.Capacity()
	need := capacity // degraded: work the backlog all the way down
	if lvl != PressureDegraded {
		exit := g.cfg.PressuredExit
		if lvl == PressureCritical {
			exit = g.cfg.CriticalExit
		}
		short := exit - g.signalLocked()
		if short <= 0 {
			return nil
		}
		need = int(short*float64(capacity)) + 1
	}

	var ranked []shedCandidate
	remaining := make(map[int]int, len(g.jobs))
	for sid, m := range g.jobs {
		remaining[sid] = len(m)
		for key, j := range m {
			ranked = append(ranked, shedCandidate{id: sid, key: key, benefit: j.benefit, pages: j.pages})
		}
	}
	sort.Slice(ranked, func(i, j int) bool {
		a, b := ranked[i], ranked[j]
		if a.benefit != b.benefit {
			return a.benefit < b.benefit
		}
		if a.id != b.id {
			return a.id < b.id
		}
		return a.key < b.key
	})

	var mine map[string]bool
	for _, c := range ranked {
		if need <= 0 {
			break
		}
		if remaining[c.id] <= 1 {
			continue // the session's single paper-guaranteed build
		}
		remaining[c.id]--
		need -= c.pages
		if c.pages <= 0 {
			need-- // unscored builds still occupy a worker; make progress
		}
		g.obsShedMarked.Inc()
		if c.id == id {
			if mine == nil {
				mine = make(map[string]bool)
			}
			mine[c.key] = true
		}
	}
	return mine
}
