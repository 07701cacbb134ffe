package core

import (
	"sync"

	"specdb/internal/obs"
	"specdb/internal/qgraph"
	"specdb/internal/sim"
)

// CSEKey is the canonical cross-session key of a materialization subplan: the
// normalized selection/join signature over base tables that qgraph.Graph.Key
// computes (relations, selection predicates, and lexicographically normalized
// join edges, each sorted — so two sessions assembling the same subplan in any
// order, under any per-session name prefix, produce the same key). Manipulation
// keys ("mat|<graph key>") are per-kind refinements of this key; the shared
// build registry below indexes pure graph keys because only materializations
// are shared across sessions.
func CSEKey(g *qgraph.Graph) string { return g.Key() }

// sharedBuildState is the lifecycle position of one registry entry.
type sharedBuildState int

const (
	// buildInFlight: the owning speculator has issued the materialization but
	// not completed it. Other sessions neither attach nor duplicate it — they
	// skip the candidate and re-evaluate on a later event.
	buildInFlight sharedBuildState = iota
	// buildReady: the build completed and its view is registered; sessions
	// attach to it (refs++) instead of rebuilding.
	buildReady
)

// sharedBuild is one registry entry: a common subexpression materialized once
// and refcounted across consumers.
type sharedBuild struct {
	table    string
	state    sharedBuildState
	cost     sim.Duration
	estPages int
	// refs counts sessions currently holding the build (the builder plus
	// every attached session); the last session to release drops the table.
	refs int
	// consumers counts attachments over the build's whole lifetime (builder
	// included); a build with consumers >= 2 was genuinely shared.
	consumers int
	// paid marks that some consumer's final query read the view: its build
	// cost was useful work, never waste.
	paid bool
}

// SharedBuilds is the engine-wide cross-session manipulation CSE registry
// (DESIGN.md §11): concurrent sessions speculating the same subplan
// materialize it once, refcount it, and release it independently. The zero
// registry is not usable; construct with NewSharedBuilds. A nil *SharedBuilds
// disables CSE (the single-session default) — every method is nil-safe.
type SharedBuilds struct {
	mu     sync.Mutex
	builds map[string]*sharedBuild

	// Lifetime aggregates (under mu): sharedCount is the number of builds
	// that reached >= 2 consumers; savedNs is the total build time avoided by
	// attachments.
	sharedCount int
	savedNs     int64

	obsClaims, obsAttached, obsShared     *obs.Counter
	obsSavedNs, obsInflightSkips, obsDrop *obs.Counter
}

// NewSharedBuilds creates an empty registry mirroring its activity into reg.
func NewSharedBuilds(reg *obs.Registry) *SharedBuilds {
	return &SharedBuilds{
		builds:           make(map[string]*sharedBuild),
		obsClaims:        reg.Counter("spec.cse.claims"),
		obsAttached:      reg.Counter("spec.cse.attached"),
		obsShared:        reg.Counter("spec.cse.shared_builds"),
		obsSavedNs:       reg.Counter("spec.cse.dedup_saved_ns"),
		obsInflightSkips: reg.Counter("spec.cse.inflight_skips"),
		obsDrop:          reg.Counter("spec.cse.dropped"),
	}
}

// TryClaim atomically claims the build of key for the calling session. It
// returns true when the caller is now the owner (and must materialize, then
// SetTable + FinishBuild, or AbortClaim on failure); false when another
// session already owns or completed the build.
func (sb *SharedBuilds) TryClaim(key string, estPages int) bool {
	if sb == nil {
		return false
	}
	sb.mu.Lock()
	defer sb.mu.Unlock()
	if _, ok := sb.builds[key]; ok {
		return false
	}
	sb.builds[key] = &sharedBuild{state: buildInFlight, estPages: estPages, refs: 1, consumers: 1}
	sb.obsClaims.Inc()
	return true
}

// SetTable records the owner's speculative table name for a claimed build.
func (sb *SharedBuilds) SetTable(key, table string) {
	if sb == nil {
		return
	}
	sb.mu.Lock()
	defer sb.mu.Unlock()
	if b, ok := sb.builds[key]; ok {
		b.table = table
	}
}

// FinishBuild marks a claimed build ready with its observed build cost; from
// here other sessions attach instead of rebuilding. The registry, not the
// owner's per-session accounting, owns the build's waste charge.
func (sb *SharedBuilds) FinishBuild(key string, cost sim.Duration) {
	if sb == nil {
		return
	}
	sb.mu.Lock()
	defer sb.mu.Unlock()
	if b, ok := sb.builds[key]; ok {
		b.state = buildReady
		b.cost = cost
	}
}

// AbortClaim withdraws a claimed build whose materialization was canceled,
// aborted, or failed before completion. No session can have attached (attach
// requires buildReady), so the entry simply disappears; the owner's canceled
// job keeps its own elapsed-time waste accounting. The empty key (no claim
// held) is a no-op.
func (sb *SharedBuilds) AbortClaim(key string) {
	if sb == nil || key == "" {
		return
	}
	sb.mu.Lock()
	defer sb.mu.Unlock()
	delete(sb.builds, key)
}

// Attach adds the calling session as a consumer of a ready build, returning
// its table and build cost. ok is false while the build is absent or still in
// flight — the caller must not use the table in that case.
func (sb *SharedBuilds) Attach(key string) (table string, cost sim.Duration, ok bool) {
	if sb == nil {
		return "", 0, false
	}
	sb.mu.Lock()
	defer sb.mu.Unlock()
	b, present := sb.builds[key]
	if !present || b.state != buildReady {
		return "", 0, false
	}
	b.refs++
	b.consumers++
	if b.consumers == 2 {
		sb.sharedCount++
		sb.obsShared.Inc()
	}
	sb.savedNs += int64(b.cost)
	sb.obsAttached.Inc()
	sb.obsSavedNs.Add(int64(b.cost))
	return b.table, b.cost, true
}

// MarkPaid records that a consumer's final query read the build: its cost was
// useful work and must never be charged as waste.
func (sb *SharedBuilds) MarkPaid(key string) {
	if sb == nil {
		return
	}
	sb.mu.Lock()
	defer sb.mu.Unlock()
	if b, ok := sb.builds[key]; ok {
		b.paid = true
	}
}

// MarkPaidTable marks the build backing table paid, if table is a registered
// shared build. Sessions call it for every table their final plan read, so a
// shared build used by ANY consumer — even one that never attached — is never
// charged as waste.
func (sb *SharedBuilds) MarkPaidTable(table string) {
	if sb == nil {
		return
	}
	sb.mu.Lock()
	defer sb.mu.Unlock()
	for _, b := range sb.builds {
		if b.table == table {
			b.paid = true
			return
		}
	}
}

// NoteInflightSkip counts a candidate skipped because another session is
// already building it — the in-flight half of the dedup.
func (sb *SharedBuilds) NoteInflightSkip() {
	if sb == nil {
		return
	}
	sb.obsInflightSkips.Inc()
}

// Release drops one consumer reference. When the last reference goes, the
// entry leaves the registry and drop reports true: the caller must drop the
// backing table, and — iff charge is also true (the build never served any
// consumer's final query and chargeIfUnused was set) — charge cost to its
// waste, exactly once across all sessions. GC releases pass
// chargeIfUnused=true; session-shutdown releases pass false, matching the
// single-session convention that Shutdown's teardown is not waste.
func (sb *SharedBuilds) Release(key string, chargeIfUnused bool) (drop bool, table string, cost sim.Duration, charge bool) {
	if sb == nil {
		return false, "", 0, false
	}
	sb.mu.Lock()
	defer sb.mu.Unlock()
	b, ok := sb.builds[key]
	if !ok {
		return false, "", 0, false
	}
	b.refs--
	if b.refs > 0 {
		return false, "", 0, false
	}
	delete(sb.builds, key)
	sb.obsDrop.Inc()
	return true, b.table, b.cost, chargeIfUnused && !b.paid
}

// State classifies key for candidate selection: absent, in flight, or ready.
func (sb *SharedBuilds) State(key string) (inflight, ready bool) {
	if sb == nil {
		return false, false
	}
	sb.mu.Lock()
	defer sb.mu.Unlock()
	b, ok := sb.builds[key]
	if !ok {
		return false, false
	}
	return b.state == buildInFlight, b.state == buildReady
}

// Known reports whether key has a registered build (in flight or ready). The
// scheduler uses it to cost shared footprints once globally instead of once
// per consumer copy.
func (sb *SharedBuilds) Known(key string) bool {
	inflight, ready := sb.State(key)
	return inflight || ready
}

// RetainedPages sums the estimated page footprint of every registered build —
// each common subexpression counted once, however many sessions consume it.
func (sb *SharedBuilds) RetainedPages() int {
	if sb == nil {
		return 0
	}
	sb.mu.Lock()
	defer sb.mu.Unlock()
	total := 0
	for _, b := range sb.builds {
		total += b.estPages
	}
	return total
}

// Snapshot reports the registry's lifetime aggregates: how many builds were
// genuinely shared (>= 2 consumers) and the total build time attachments
// avoided.
func (sb *SharedBuilds) Snapshot() (sharedBuilds int, dedupSaved sim.Duration) {
	if sb == nil {
		return 0, 0
	}
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.sharedCount, sim.Duration(sb.savedNs)
}
