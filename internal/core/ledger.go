package core

import (
	"cmp"
	"math/bits"
	"slices"
	"sync"

	"specdb/internal/obs"
	"specdb/internal/sim"
)

// AssetKey names one ledger entry: a manipulation and who may hold it.
type AssetKey struct {
	// Scope is 0 for a materialization on a sharing ledger — every session
	// speculating the subplan meets in the one entry — and otherwise the one
	// session that can hold the entry.
	Scope int
	// Manip is Manipulation.Key(). Graph keys are canonical (relations,
	// selections and normalized join edges, each sorted), so two sessions
	// assembling the same subplan in any order produce the same key.
	Manip string
}

// Shared reports whether sessions other than the builder may attach.
func (k AssetKey) Shared() bool { return k.Scope == 0 }

// Holding is one session's hold on one asset, the unit the governor ranks
// and sums: a shared view counts once per holder, as each holder's budget
// counts it.
type Holding struct {
	Key    AssetKey
	Holder int
	// Worth is the shed rank (lowest goes first): the benefit scored at issue
	// while the build is in flight, its build cost once it is a held view.
	Worth sim.Duration
	// Pages is the holder's own estimate of the retained footprint.
	Pages int
	// Table is a ready view's speculative table; empty while in flight.
	Table string
}

// asset is one ledger entry: a job in flight, or a completed materialization
// somebody still holds.
type asset struct {
	ready bool
	// table and cost are a ready view's speculative table and build time.
	table string
	cost  sim.Duration
	// paid marks that some final query read the view: its cost was useful
	// work, never waste.
	paid    bool
	builder int
	// from, to and io are a started job's span and page-I/O time (Run).
	from, to sim.Time
	io       sim.Duration
	// holds has one element while in flight (the builder) and one per holding
	// session once ready; the last to release drops the table.
	holds []Holding
	// consumers counts holders over the entry's lifetime; two or more means
	// the build was genuinely shared.
	consumers int
}

func (a *asset) holdIndex(holder int) int {
	for i := range a.holds {
		if a.holds[i].Holder == holder {
			return i
		}
	}
	return -1
}

// Ledger is the engine-wide record of speculative work (DESIGN.md §16): every
// started job and every held view is one entry, written by the speculators'
// lifecycle transitions and read by the governor and the speculators
// themselves, whose worker gate counts the jobs in flight here. On a sharing
// ledger (DESIGN.md §11) a materialization's entry is keyed by its subplan
// alone, so concurrent sessions build it once and hold it together;
// everything else, and every entry of a non-sharing ledger, is keyed under
// the session that issued it.
// Sessions that go wide (Config.Workers > 1) or share a Governor must share
// the Ledger.
type Ledger struct {
	mu         sync.Mutex
	share      bool
	assets     map[AssetKey]*asset
	lastHolder int
	// misuses counts writes by a session that does not hold what it names —
	// a lifecycle bug, never a containable fault. Quiesce checks want zero.
	misuses int

	// Lifetime aggregates: entries that reached two consumers, and the build
	// time attachments avoided.
	sharedCount int
	savedNs     int64

	// Mirrors of the shared entries' activity; nil on a non-sharing ledger
	// (obs counters are nil-safe).
	obsClaims, obsAttached, obsShared     *obs.Counter
	obsSavedNs, obsInflightSkips, obsDrop *obs.Counter
}

// NewLedger creates an empty ledger. With share set, materializations are
// shared across its sessions and that activity is mirrored into reg.
func NewLedger(reg *obs.Registry, share bool) *Ledger {
	l := &Ledger{share: share, assets: make(map[AssetKey]*asset)}
	if share {
		l.obsClaims = reg.Counter("spec.cse.claims")
		l.obsAttached = reg.Counter("spec.cse.attached")
		l.obsShared = reg.Counter("spec.cse.shared_builds")
		l.obsSavedNs = reg.Counter("spec.cse.dedup_saved_ns")
		l.obsInflightSkips = reg.Counter("spec.cse.inflight_skips")
		l.obsDrop = reg.Counter("spec.cse.dropped")
	}
	return l
}

// NewHolder admits one session, returning its id (1, 2, … in admission order:
// the governor's shed ranking breaks benefit ties by it).
func (l *Ledger) NewHolder() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lastHolder++
	return l.lastHolder
}

// Key is the entry a manipulation of holder's lives under.
func (l *Ledger) Key(holder int, m *Manipulation) AssetKey {
	if l.share && m.Kind == ManipMaterialize {
		holder = 0
	}
	return AssetKey{Scope: holder, Manip: m.Key()}
}

// Claim opens key's entry, in flight and held by holder alone, before the
// build runs — so that of several sessions wanting the same shared subplan at
// once exactly one builds it. False means the entry exists: another session
// is building it, and the caller skips the candidate until it can attach.
func (l *Ledger) Claim(key AssetKey, holder int, worth sim.Duration, pages int) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.assets[key]; ok {
		l.obsInflightSkips.Inc()
		return false
	}
	l.assets[key] = &asset{builder: holder, consumers: 1,
		holds: []Holding{{Key: key, Holder: holder, Worth: worth, Pages: pages}}}
	if key.Shared() {
		l.obsClaims.Inc()
	}
	return true
}

// inFlight returns holder's in-flight entry under key, counting a misuse when
// there is none.
func (l *Ledger) inFlight(key AssetKey, holder int) *asset {
	a := l.assets[key]
	if a == nil || a.ready || a.builder != holder {
		l.misuses++
		return nil
	}
	return a
}

// End closes holder's in-flight entry: the job was refused, canceled or
// aborted, or completed into something the ledger does not track (an index, a
// histogram, staged pages, a cached answer). No session can have attached, so
// the key is claimable again.
func (l *Ledger) End(key AssetKey, holder int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.inFlight(key, holder) != nil {
		delete(l.assets, key)
	}
}

// Run records the span [from, to) of holder's in-flight job under key and the
// page-I/O time io it spends in it.
func (l *Ledger) Run(key AssetKey, holder int, from, to sim.Time, io sim.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if a := l.inFlight(key, holder); a != nil {
		a.from, a.to, a.io = from, to, io
	}
}

// DeviceBusy is how much of [from, to) other holders' in-flight jobs keep the
// device busy (DESIGN.md §6), each one's I/O spread evenly over its span: whole
// nanoseconds per entry, so map order cannot move the sum, at most the window.
func (l *Ledger) DeviceBusy(holder int, from, to sim.Time) sim.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	var busy sim.Duration
	for _, a := range l.assets {
		lo, hi := max(from, a.from), min(to, a.to)
		if !a.ready && a.builder != holder && hi > lo {
			busy += mulDiv(a.io, hi.Sub(lo), a.to.Sub(a.from))
		}
	}
	return min(busy, to.Sub(from))
}

// mulDiv is x·y/z, truncated, exact where x·y overflows; y <= z.
func mulDiv(x, y, z sim.Duration) sim.Duration {
	hi, lo := bits.Mul64(uint64(x), uint64(y))
	q, _ := bits.Div64(hi, lo, uint64(z))
	return sim.Duration(q)
}

// Ready turns holder's in-flight materialization into a held view on table
// with its observed build cost; from here other sessions attach instead of
// rebuilding, and the view ranks for shedding by what it cost.
func (l *Ledger) Ready(key AssetKey, holder int, table string, cost sim.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if a := l.inFlight(key, holder); a != nil {
		a.ready, a.table, a.cost = true, table, cost
		a.holds[0].Worth, a.holds[0].Table = cost, table
	}
}

// Attach adds holder to a ready view it does not hold yet, with its own
// estimate of the footprint, and returns the build cost the attachment
// avoided. ok is false while the entry is absent or in flight.
func (l *Ledger) Attach(key AssetKey, holder, pages int) (cost sim.Duration, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	a := l.assets[key]
	if a == nil || !a.ready || a.holdIndex(holder) >= 0 {
		return 0, false
	}
	a.holds = append(a.holds, Holding{Key: key, Holder: holder, Worth: a.cost, Pages: pages, Table: a.table})
	if a.consumers++; a.consumers == 2 {
		l.sharedCount++
		l.obsShared.Inc()
	}
	l.savedNs += int64(a.cost)
	l.obsAttached.Inc()
	l.obsSavedNs.Add(int64(a.cost))
	return a.cost, true
}

// Released is what letting go of a held view means for the session doing it.
type Released struct {
	// Built: this session built the view.
	Built bool
	// Last: nobody holds it any more, the entry is gone and the caller must
	// drop the table — and, iff Charge, charge Cost to its waste: the view
	// never served a final query and the release is not a session closing.
	// That is once across all sessions, whoever built it.
	Last, Charge bool
	Cost         sim.Duration
}

// Release drops holder's hold on a ready view. closing marks session
// teardown, which is bookkeeping, never waste.
func (l *Ledger) Release(key AssetKey, holder int, closing bool) Released {
	l.mu.Lock()
	defer l.mu.Unlock()
	a := l.assets[key]
	i := -1
	if a != nil && a.ready {
		i = a.holdIndex(holder)
	}
	if i < 0 {
		l.misuses++
		return Released{}
	}
	a.holds = slices.Delete(a.holds, i, i+1)
	r := Released{Built: a.builder == holder, Last: len(a.holds) == 0, Cost: a.cost}
	if r.Last {
		delete(l.assets, key)
		r.Charge = !closing && !a.paid
		if key.Shared() {
			l.obsDrop.Inc()
		}
	}
	return r
}

// MarkPaid records that holder's final query read table, and reports whether
// holder holds the view behind it. A shared view any consumer used — even one
// that never attached — is never charged as waste; another session's private
// view is not this session's to settle.
func (l *Ledger) MarkPaid(holder int, table string) (held bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for key, a := range l.assets {
		if a.table == table && (key.Shared() || key.Scope == holder) {
			a.paid = true
			return a.holdIndex(holder) >= 0
		}
	}
	return false
}

// IsReady reports whether key is a completed, held view.
func (l *Ledger) IsReady(key AssetKey) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	a := l.assets[key]
	return a != nil && a.ready
}

// Holds reports whether holder builds key's entry or holds its view.
func (l *Ledger) Holds(key AssetKey, holder int) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	a := l.assets[key]
	return a != nil && a.holdIndex(holder) >= 0
}

// HeldViews lists holder's holds on ready views by manipulation key, the
// order its engine-mutating teardown loops drop them in.
func (l *Ledger) HeldViews(holder int) []Holding {
	l.mu.Lock()
	defer l.mu.Unlock()
	var hs []Holding
	for _, a := range l.assets {
		if i := a.holdIndex(holder); a.ready && i >= 0 {
			hs = append(hs, a.holds[i])
		}
	}
	slices.SortFunc(hs, func(a, b Holding) int { return cmp.Compare(a.Key.Manip, b.Key.Manip) })
	return hs
}

// Pages sums the estimated pages of holder's holdings, in flight and
// retained: the session's footprint, which Config.BudgetPages caps.
func (l *Ledger) Pages(holder int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	pages := 0
	for _, a := range l.assets {
		if i := a.holdIndex(holder); i >= 0 {
			pages += a.holds[i].Pages
		}
	}
	return pages
}

// InFlight counts the jobs in flight across all sessions, not counting key —
// the candidate whose admission is being decided has its entry already.
func (l *Ledger) InFlight(except AssetKey) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for key, a := range l.assets {
		if !a.ready && key != except {
			n++
		}
	}
	return n
}

// Holdings lists every hold on every entry in shed order: least worth first,
// ties by holder, then manipulation.
func (l *Ledger) Holdings() []Holding {
	l.mu.Lock()
	defer l.mu.Unlock()
	var hs []Holding
	for _, a := range l.assets {
		hs = append(hs, a.holds...)
	}
	slices.SortFunc(hs, func(a, b Holding) int {
		return cmp.Or(cmp.Compare(a.Worth, b.Worth), cmp.Compare(a.Holder, b.Holder),
			cmp.Compare(a.Key.Manip, b.Key.Manip))
	})
	return hs
}

// Footprint sums the estimated pages of every holding: the engine's whole
// speculative appetite, in flight and retained.
func (l *Ledger) Footprint() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	pages := 0
	for _, a := range l.assets {
		for _, h := range a.holds {
			pages += h.Pages
		}
	}
	return pages
}

// Len is the number of entries. An engine whose sessions have all shut down
// has none.
func (l *Ledger) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.assets)
}

// Misuses reports how many writes named something their session did not hold.
func (l *Ledger) Misuses() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.misuses
}

// Snapshot reports the lifetime aggregates: how many builds were genuinely
// shared (two or more consumers) and the total build time attachments avoided.
func (l *Ledger) Snapshot() (sharedBuilds int, dedupSaved sim.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sharedCount, sim.Duration(l.savedNs)
}
