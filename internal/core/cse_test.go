package core

import (
	"fmt"
	"testing"
	"time"

	"specdb/internal/engine"
	"specdb/internal/obs"
	"specdb/internal/qgraph"
	"specdb/internal/sim"
	"specdb/internal/storage"
	"specdb/internal/trace"
	"specdb/internal/tuple"
)

func TestCSEKeyCanonical(t *testing.T) {
	j := qgraph.Join{LeftRel: "S", LeftCol: "a", RightRel: "R", RightCol: "a"}
	a := qgraph.New()
	a.AddRelation("R")
	a.AddRelation("S")
	a.AddSelection(selRC(5))
	a.AddJoin(j)
	b := qgraph.New()
	b.AddJoin(j) // joins imply their relations; different assembly order
	b.AddRelation("R")
	b.AddSelection(selRC(5))
	b.AddRelation("S")
	if CSEKey(a) != CSEKey(b) {
		t.Fatalf("CSEKey not canonical:\n a: %s\n b: %s", CSEKey(a), CSEKey(b))
	}
	c := qgraph.New()
	c.AddRelation("R")
	c.AddSelection(selRC(6))
	if CSEKey(a) == CSEKey(c) {
		t.Fatal("different subplans share a CSE key")
	}
}

func TestSharedBuildsLifecycle(t *testing.T) {
	sb := NewSharedBuilds(obs.NewRegistry())

	if _, _, ok := sb.Attach("k"); ok {
		t.Fatal("attach to an absent build succeeded")
	}
	if !sb.TryClaim("k", 7) {
		t.Fatal("first claim failed")
	}
	if sb.TryClaim("k", 7) {
		t.Fatal("second claim of the same key succeeded")
	}
	if inflight, ready := sb.State("k"); !inflight || ready {
		t.Fatalf("claimed build state inflight=%v ready=%v", inflight, ready)
	}
	if _, _, ok := sb.Attach("k"); ok {
		t.Fatal("attach to an in-flight build succeeded")
	}
	if got := sb.RetainedPages(); got != 7 {
		t.Fatalf("RetainedPages = %d, want 7", got)
	}

	sb.SetTable("k", "spec_1")
	sb.FinishBuild("k", sim.DurationFromSeconds(3))
	if inflight, ready := sb.State("k"); inflight || !ready {
		t.Fatalf("finished build state inflight=%v ready=%v", inflight, ready)
	}
	table, cost, ok := sb.Attach("k")
	if !ok || table != "spec_1" || cost != sim.DurationFromSeconds(3) {
		t.Fatalf("Attach = (%q, %v, %v)", table, cost, ok)
	}
	if shared, saved := sb.Snapshot(); shared != 1 || saved != sim.DurationFromSeconds(3) {
		t.Fatalf("Snapshot = (%d, %v), want (1, 3s)", shared, saved)
	}
	// Pages are counted once globally no matter how many consumers hold refs.
	if got := sb.RetainedPages(); got != 7 {
		t.Fatalf("RetainedPages with two consumers = %d, want 7", got)
	}

	// Two refs outstanding: the first release keeps the build, the second
	// drops it and carries the single waste charge.
	if drop, _, _, _ := sb.Release("k", true); drop {
		t.Fatal("first release dropped a build with a live reference")
	}
	drop, table, cost, charge := sb.Release("k", true)
	if !drop || !charge || table != "spec_1" || cost != sim.DurationFromSeconds(3) {
		t.Fatalf("last release = (drop=%v, %q, %v, charge=%v)", drop, table, cost, charge)
	}
	if sb.Known("k") {
		t.Fatal("released build still known")
	}
	if got := sb.RetainedPages(); got != 0 {
		t.Fatalf("RetainedPages after release = %d", got)
	}
	// Lifetime aggregates survive the release.
	if shared, _ := sb.Snapshot(); shared != 1 {
		t.Fatalf("Snapshot lost the shared count: %d", shared)
	}
}

func TestSharedBuildsChargeSuppression(t *testing.T) {
	cases := []struct {
		name   string
		mark   func(sb *SharedBuilds)
		gcLike bool
		charge bool
	}{
		{"unpaid GC release charges", func(*SharedBuilds) {}, true, true},
		{"paid build never charges", func(sb *SharedBuilds) { sb.MarkPaid("k") }, true, false},
		{"paid via table never charges", func(sb *SharedBuilds) { sb.MarkPaidTable("spec_1") }, true, false},
		{"shutdown release never charges", func(*SharedBuilds) {}, false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sb := NewSharedBuilds(obs.NewRegistry())
			sb.TryClaim("k", 1)
			sb.SetTable("k", "spec_1")
			sb.FinishBuild("k", sim.DurationFromSeconds(1))
			tc.mark(sb)
			drop, _, _, charge := sb.Release("k", tc.gcLike)
			if !drop {
				t.Fatal("single-ref release did not drop")
			}
			if charge != tc.charge {
				t.Fatalf("charge = %v, want %v", charge, tc.charge)
			}
		})
	}
	// MarkPaidTable for an unregistered table is a no-op, not a panic.
	sb := NewSharedBuilds(obs.NewRegistry())
	sb.MarkPaidTable("no_such_table")
}

func TestSharedBuildsAbortClaim(t *testing.T) {
	sb := NewSharedBuilds(obs.NewRegistry())
	sb.TryClaim("k", 3)
	sb.AbortClaim("k")
	if sb.Known("k") {
		t.Fatal("aborted claim still known")
	}
	if !sb.TryClaim("k", 3) {
		t.Fatal("key not claimable after abort")
	}
}

func TestSharedBuildsNilSafe(t *testing.T) {
	var sb *SharedBuilds
	if sb.TryClaim("k", 1) {
		t.Fatal("nil registry accepted a claim")
	}
	sb.SetTable("k", "x")
	sb.FinishBuild("k", 1)
	sb.AbortClaim("k")
	if _, _, ok := sb.Attach("k"); ok {
		t.Fatal("nil registry attached")
	}
	sb.MarkPaid("k")
	sb.MarkPaidTable("x")
	sb.NoteInflightSkip()
	if drop, _, _, _ := sb.Release("k", true); drop {
		t.Fatal("nil registry dropped")
	}
	if sb.Known("k") {
		t.Fatal("nil registry knows a key")
	}
	if got := sb.RetainedPages(); got != 0 {
		t.Fatalf("nil RetainedPages = %d", got)
	}
	if shared, saved := sb.Snapshot(); shared != 0 || saved != 0 {
		t.Fatalf("nil Snapshot = (%d, %v)", shared, saved)
	}
}

// stagePages stages n heap pages of rel to shrink the pool's headroom.
func stagePages(t *testing.T, e *engine.Engine, rel string, n int) {
	t.Helper()
	tbl, err := e.Catalog.Table(rel)
	if err != nil {
		t.Fatal(err)
	}
	ids := tbl.Heap.PageIDs()
	if len(ids) < n {
		t.Fatalf("%s has %d pages, need %d", rel, len(ids), n)
	}
	for i := 0; i < n; i++ {
		if err := e.Pool.Stage(storage.PageID(ids[i])); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSchedulerZeroEstPagesFloor is the admission-floor bugfix regression: a job
// with no cost estimate (EstPages == 0) must be floored to a conservative
// footprint, not admitted as if it were free.
func TestSchedulerZeroEstPagesFloor(t *testing.T) {
	// A 64-page pool: reserve 16, floor max(MinEstPages, 8) = 8. One wide
	// table supplies enough heap pages to stage the headroom down.
	e := engine.New(engine.Config{BufferPoolPages: 64})
	schema := tuple.NewSchema(
		tuple.Column{Name: "a", Kind: tuple.KindInt},
		tuple.Column{Name: "c", Kind: tuple.KindInt},
	)
	if _, err := e.CreateTable("big", schema); err != nil {
		t.Fatal(err)
	}
	rows := make([]tuple.Row, 60000)
	for i := range rows {
		rows[i] = tuple.Row{tuple.NewInt(int64(i % 50)), tuple.NewInt(int64(i % 23))}
	}
	if err := e.InsertRows("big", rows); err != nil {
		t.Fatal(err)
	}

	pool := e.Pool
	reserve := pool.Capacity() / 4
	floor := reserve / 2
	if floor <= MinEstPages {
		t.Fatalf("test pool too small to distinguish the floor (floor=%d)", floor)
	}
	// Stage pages until headroom - reserve lands in [MinEstPages, floor): the
	// exact window where the old code (pages = 0) admitted an unscored job but
	// a floored one must defer — while a genuinely tiny job still fits.
	target := reserve + floor/2
	stagePages(t, e, "big", pool.Headroom()-target)
	if got := pool.Headroom() - reserve; got < MinEstPages || got >= floor {
		t.Fatalf("headroom-reserve = %d, want within [%d, %d)", got, MinEstPages, floor)
	}

	s := NewScheduler(2, pool)
	if s.AdmitExtraKeyed("", 0) {
		t.Fatal("unscored job admitted under pool pressure")
	}
	if s.AdmitExtraKeyed("", -3) {
		t.Fatal("negative estimate admitted under pool pressure")
	}
	// A genuinely tiny scored job still fits.
	if !s.AdmitExtraKeyed("", MinEstPages) {
		t.Fatal("minimal scored job deferred with headroom available")
	}
}

// TestSchedulerSharedFootprintAdmission: a job whose subplan is already in
// the shared-build registry adds no new pages, so admission must not hold the
// per-copy estimate against the pool.
func TestSchedulerSharedFootprintAdmission(t *testing.T) {
	e := newTestEngine(t, 20000)
	s := NewScheduler(2, e.Pool)
	sb := NewSharedBuilds(obs.NewRegistry())
	s.AttachCSE(sb)

	huge := e.Pool.Capacity() * 2
	if s.AdmitExtraKeyed("mat|G", huge) {
		t.Fatal("oversized unshared job admitted")
	}
	sb.TryClaim("G", huge)
	if !s.AdmitExtraKeyed("mat|G", huge) {
		t.Fatal("registered shared build charged per-copy footprint")
	}
	// Worker-slot exhaustion still defers regardless of sharing.
	s.Acquire()
	s.Acquire()
	if s.AdmitExtraKeyed("mat|G", 0) {
		t.Fatal("admitted past the worker cap")
	}
}

// testPending is the owner-side completion schedule, the protocol cmd/bench
// still speaks: fold every outcome's Canceled and Issued lists into a job set
// and Complete the due ones earliest first. It is the reference
// TestAdvanceMatchesOwnerSchedule holds Speculator.Advance to.
type testPending struct{ jobs []*Job }

func (p *testPending) apply(out EventOutcome) {
	for _, c := range out.Canceled {
		p.remove(c)
	}
	p.jobs = append(p.jobs, out.Issued...)
}

func (p *testPending) remove(job *Job) {
	for i, j := range p.jobs {
		if j == job {
			p.jobs = append(p.jobs[:i], p.jobs[i+1:]...)
			return
		}
	}
}

func (p *testPending) advance(sp *Speculator, t sim.Time) error {
	for {
		var due *Job
		for _, j := range p.jobs {
			if j.CompletesAt <= t && (due == nil || j.CompletesAt < due.CompletesAt) {
				due = j
			}
		}
		if due == nil {
			return nil
		}
		p.remove(due)
		next, err := sp.Complete(due, due.CompletesAt)
		if err != nil {
			return err
		}
		p.jobs = append(p.jobs, next...)
	}
}

// replayRandom drives sp through steps pseudo-random formulation events over
// the R/S/W schema — adds, removes, GOs, and clears, with completions and
// cancellations interleaved — think pauses of 1 to 40 units apart. Due jobs
// complete through sp.Advance, or, with owner set, through a testPending
// schedule.
func replayRandom(t *testing.T, sp *Speculator, seed uint64, steps int, unit sim.Duration, owner bool) {
	t.Helper()
	r := sim.NewRand(seed)
	var pending testPending
	advance := sp.Advance
	if owner {
		advance = func(now sim.Time) error { return pending.advance(sp, now) }
	}
	joins := []qgraph.Join{
		{LeftRel: "R", LeftCol: "a", RightRel: "S", RightCol: "a"},
		{LeftRel: "S", LeftCol: "b", RightRel: "W", RightCol: "b"},
	}
	now := sim.FromSeconds(0)
	for i := 0; i < steps; i++ {
		now = now.Add(unit * sim.Duration(1+r.Intn(40)))
		if err := advance(now); err != nil {
			t.Fatal(err)
		}
		var ev trace.Event
		switch r.Intn(6) {
		case 0, 1:
			ev = evAddSel(selRC(int64(r.Intn(20))))
		case 2:
			ev = evRemoveSel(selRC(int64(r.Intn(20))))
		case 3:
			ev = evAddJoin(joins[r.Intn(len(joins))])
		case 4:
			if sp.Partial().IsEmpty() {
				continue // a GO needs a formulated query
			}
			if _, goOut, err := sp.OnGo(now); err != nil {
				t.Fatal(err)
			} else {
				pending.apply(goOut)
			}
			continue
		default:
			ev = trace.Event{Kind: trace.EvClear}
		}
		out, err := sp.OnEvent(ev, now)
		if err != nil {
			t.Fatal(err)
		}
		pending.apply(out)
	}
}

// TestWasteChargedOncePerBuild is the waste double-charge audit made
// executable: across randomized replays — cancellations, GO-cancels,
// garbage collection, clears, waits — no single build execution may hit
// Stats.Waste more than once.
func TestWasteChargedOncePerBuild(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		for _, wait := range []bool{false, true} {
			t.Run(fmt.Sprintf("seed=%d/wait=%v", seed, wait), func(t *testing.T) {
				// Small relations: the replay materializes three-way joins,
				// whose row counts grow quadratically with relation size.
				e := newTestEngine(t, 400)
				cfg := DefaultConfig()
				cfg.MinBenefit = 0
				cfg.WaitForCompletion = wait
				sp := newSpec(e, cfg)
				replayRandom(t, sp, seed, 120, time.Second, false)
				if err := sp.Shutdown(); err != nil {
					t.Fatal(err)
				}
				for id, n := range sp.WasteCharges() {
					if n > 1 {
						t.Errorf("build %s charged to waste %d times", id, n)
					}
				}
				st := sp.Stats()
				if st.Issued != st.Terminals() {
					t.Errorf("quiesce identity violated: issued %d, terminal %d (%+v)", st.Issued, st.Terminals(), st)
				}
			})
		}
	}
}

// TestWasteChargedOncePerBuildShared extends the audit across sessions: with
// the CSE registry deduplicating builds, a shared build's cost must be
// charged by exactly one session's ledger, and at most once.
func TestWasteChargedOncePerBuildShared(t *testing.T) {
	e := newTestEngine(t, 400)
	sb := NewSharedBuilds(e.Metrics())
	sched := NewScheduler(2, e.Pool)
	sched.AttachCSE(sb)
	specs := make([]*Speculator, 3)
	for i := range specs {
		cfg := DefaultConfig()
		cfg.MinBenefit = 0
		cfg.NamePrefix = fmt.Sprintf("cse_u%d", i)
		cfg.CSE = sb
		cfg.Scheduler = sched
		specs[i] = newSpec(e, cfg)
	}
	for i, sp := range specs {
		replayRandom(t, sp, uint64(100+i), 100, time.Second, false)
	}
	global := map[string]int{}
	for _, sp := range specs {
		if err := sp.Shutdown(); err != nil {
			t.Fatal(err)
		}
		for id, n := range sp.WasteCharges() {
			global[id] += n
		}
	}
	for id, n := range global {
		if n > 1 {
			t.Errorf("build %s charged to waste %d times across sessions", id, n)
		}
	}
}

// TestSpeculatorSharedBuildAdoption walks the cross-session CSE protocol end
// to end on one engine: session A builds, session B adopts instead of
// rebuilding, B's final query hits the shared view, and the refcounted
// release drops the backing table exactly once.
func TestSpeculatorSharedBuildAdoption(t *testing.T) {
	e := newTestEngine(t, 20000)
	sb := NewSharedBuilds(e.Metrics())
	mkSpec := func(prefix string) *Speculator {
		cfg := DefaultConfig()
		cfg.NamePrefix = prefix
		cfg.CSE = sb
		return newSpec(e, cfg)
	}
	a, b := mkSpec("cse_a"), mkSpec("cse_b")

	outA, err := a.OnEvent(evAddSel(selRC(18)), sim.FromSeconds(0))
	if err != nil {
		t.Fatal(err)
	}
	jobA := one(outA.Issued)
	if jobA == nil {
		t.Fatal("session A issued nothing")
	}
	if got := a.Stats().SharedBuilds; got != 1 {
		t.Fatalf("A SharedBuilds = %d, want 1", got)
	}
	if _, err := a.Complete(jobA, jobA.CompletesAt); err != nil {
		t.Fatal(err)
	}

	// B formulates the same subplan after A's build is ready: it must adopt,
	// not rebuild — no job issued, the avoided cost credited as DedupSaved.
	at := jobA.CompletesAt.Add(sim.DurationFromSeconds(1))
	outB, err := b.OnEvent(evAddSel(selRC(18)), at)
	if err != nil {
		t.Fatal(err)
	}
	if one(outB.Issued) != nil {
		t.Fatalf("session B rebuilt a shared subplan: %v", one(outB.Issued).Manip)
	}
	stB := b.Stats()
	if stB.SharedAttached != 1 || stB.DedupSaved <= 0 {
		t.Fatalf("B did not adopt: %+v", stB)
	}
	if shared, saved := sb.Snapshot(); shared != 1 || saved <= 0 {
		t.Fatalf("registry Snapshot = (%d, %v)", shared, saved)
	}

	// B's GO is served by the shared view and counts as B's hit.
	if _, _, err := b.OnGo(at.Add(sim.DurationFromSeconds(5))); err != nil {
		t.Fatal(err)
	}
	if b.Stats().Hits != 1 {
		t.Fatalf("B Hits = %d, want 1", b.Stats().Hits)
	}

	// Teardown in either order drops the table exactly once and leaves no
	// waste: the build served B's query, so it is paid for.
	if err := b.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if !e.Catalog.HasTable(jobA.tableName) {
		t.Fatal("table dropped while A still holds a reference")
	}
	if err := a.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if e.Catalog.HasTable(jobA.tableName) {
		t.Fatal("shared table leaked after the last release")
	}
	if w := a.Stats().Waste + b.Stats().Waste; w != 0 {
		t.Fatalf("paid shared build charged %v waste", w)
	}
}

// TestSpeculatorInflightDedup: while A's build is in flight, B neither
// attaches nor duplicates — it skips and adopts once ready.
func TestSpeculatorInflightDedup(t *testing.T) {
	e := newTestEngine(t, 20000)
	sb := NewSharedBuilds(e.Metrics())
	mkSpec := func(prefix string) *Speculator {
		cfg := DefaultConfig()
		cfg.NamePrefix = prefix
		cfg.CSE = sb
		return newSpec(e, cfg)
	}
	a, b := mkSpec("cse_a"), mkSpec("cse_b")

	outA, err := a.OnEvent(evAddSel(selRC(18)), sim.FromSeconds(0))
	if err != nil {
		t.Fatal(err)
	}
	jobA := one(outA.Issued)
	if jobA == nil {
		t.Fatal("session A issued nothing")
	}
	outB, err := b.OnEvent(evAddSel(selRC(18)), sim.FromSeconds(1))
	if err != nil {
		t.Fatal(err)
	}
	if one(outB.Issued) != nil {
		t.Fatal("session B duplicated an in-flight build")
	}
	if b.Stats().SharedAttached != 0 {
		t.Fatal("B attached to an unfinished build")
	}
	if _, err := a.Complete(jobA, jobA.CompletesAt); err != nil {
		t.Fatal(err)
	}
	// Any later formulation event re-enumerates and adopts the ready build
	// (the selRC(18) subgraph stays contained in B's partial query).
	if _, err := b.OnEvent(evAddSel(selRC(10)), jobA.CompletesAt.Add(sim.DurationFromSeconds(1))); err != nil {
		t.Fatal(err)
	}
	if b.Stats().SharedAttached != 1 {
		t.Fatalf("B SharedAttached = %d after build completed", b.Stats().SharedAttached)
	}
	if err := a.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := b.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if e.Catalog.HasTable(jobA.tableName) {
		t.Fatal("shared table leaked")
	}
}

// TestSpeculatorBudgetPages: the per-session footprint budget defers
// candidates that would exceed it, and the deferral is observable.
func TestSpeculatorBudgetPages(t *testing.T) {
	e := newTestEngine(t, 20000)
	cfg := DefaultConfig()
	cfg.BudgetPages = 1 // below any real materialization estimate
	sp := newSpec(e, cfg)
	out, err := sp.OnEvent(evAddSel(selRC(18)), sim.FromSeconds(0))
	if err != nil {
		t.Fatal(err)
	}
	if one(out.Issued) != nil {
		t.Fatal("issued past an exhausted budget")
	}
	if sp.Stats().BudgetDeferred == 0 {
		t.Fatal("budget deferral not counted")
	}
	if err := sp.Shutdown(); err != nil {
		t.Fatal(err)
	}
}
