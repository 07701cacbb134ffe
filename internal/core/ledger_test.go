package core

import (
	"fmt"
	"slices"
	"strings"
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

// TestCSEKeyCanonical: two sessions assembling the same subplan in any order
// meet in one entry of a sharing ledger, and in none of a non-sharing one.
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
	c := qgraph.New()
	c.AddRelation("R")
	c.AddSelection(selRC(6))
	mat := func(g *qgraph.Graph) *Manipulation { return &Manipulation{Kind: ManipMaterialize, Graph: g} }

	shared := NewLedger(obs.NewRegistry(), true)
	if ka, kb := shared.Key(1, mat(a)), shared.Key(2, mat(b)); ka != kb || !ka.Shared() {
		t.Fatalf("shared key not canonical:\n a: %v\n b: %v", ka, kb)
	}
	if shared.Key(1, mat(a)) == shared.Key(1, mat(c)) {
		t.Fatal("different subplans share a key")
	}
	if k := shared.Key(1, &Manipulation{Kind: ManipIndex, Rel: "R", Col: "c"}); k.Shared() {
		t.Fatalf("an index is never shared: %v", k)
	}
	private := NewLedger(obs.NewRegistry(), false)
	if ka, kb := private.Key(1, mat(a)), private.Key(2, mat(b)); ka == kb || ka.Shared() || ka.Manip != kb.Manip {
		t.Fatalf("non-sharing ledger: keys %v and %v must differ in scope only", ka, kb)
	}
}

func TestSharedBuildsLifecycle(t *testing.T) {
	l := NewLedger(obs.NewRegistry(), true)
	a, b := l.NewHolder(), l.NewHolder()
	k := AssetKey{Manip: "k"}

	if _, ok := l.Attach(k, b, 7); ok {
		t.Fatal("attach to an absent build succeeded")
	}
	if !l.Claim(k, a, secs(1), 7) {
		t.Fatal("first claim failed")
	}
	if l.Claim(k, b, secs(1), 7) {
		t.Fatal("second claim of the same key succeeded")
	}
	if l.IsReady(k) || l.InFlight(AssetKey{}) != 1 || l.InFlight(k) != 0 {
		t.Fatalf("claimed build: ready %v, %d in flight (%d beside itself)", l.IsReady(k), l.InFlight(AssetKey{}), l.InFlight(k))
	}
	if _, ok := l.Attach(k, b, 7); ok {
		t.Fatal("attach to an in-flight build succeeded")
	}
	if got := l.Footprint(); got != 7 {
		t.Fatalf("Footprint = %d, want 7", got)
	}

	l.Ready(k, a, "spec_1", sim.DurationFromSeconds(3))
	if !l.IsReady(k) || l.InFlight(AssetKey{}) != 0 {
		t.Fatalf("finished build: ready %v, %d in flight", l.IsReady(k), l.InFlight(AssetKey{}))
	}
	cost, ok := l.Attach(k, b, 5)
	if !ok || cost != sim.DurationFromSeconds(3) {
		t.Fatalf("Attach = (%v, %v)", cost, ok)
	}
	if _, ok := l.Attach(k, b, 5); ok {
		t.Fatal("a holder attached twice")
	}
	if shared, saved := l.Snapshot(); shared != 1 || saved != sim.DurationFromSeconds(3) {
		t.Fatalf("Snapshot = (%d, %v), want (1, 3s)", shared, saved)
	}
	// Each holder's estimate counts, as each holder's budget counts it; a view
	// ranks by what it cost.
	if got := l.Footprint(); got != 12 {
		t.Fatalf("Footprint with two holders = %d, want 12", got)
	}
	for _, h := range l.Holdings() {
		if h.Key != k || h.Worth != sim.DurationFromSeconds(3) || h.Pages != map[int]int{a: 7, b: 5}[h.Holder] || h.Table != "spec_1" {
			t.Fatalf("holding %+v", h)
		}
	}

	// Two holders: the first release keeps the build, the second drops it and
	// carries the single waste charge.
	if r := l.Release(k, a, false); !r.Built || r.Last || r.Charge {
		t.Fatalf("builder's release beside an adopter = %+v", r)
	}
	if r := l.Release(k, b, false); r.Built || !r.Last || !r.Charge || r.Cost != sim.DurationFromSeconds(3) {
		t.Fatalf("last release = %+v", r)
	}
	if l.Len() != 0 || l.Footprint() != 0 || l.Misuses() != 0 {
		t.Fatalf("after the last release: %d entries, %d pages, %d misuses", l.Len(), l.Footprint(), l.Misuses())
	}
	// Lifetime aggregates survive the release.
	if shared, _ := l.Snapshot(); shared != 1 {
		t.Fatalf("Snapshot lost the shared count: %d", shared)
	}

	// Writing what one does not hold changes nothing and is counted: ending or
	// finishing somebody else's claim, releasing a view twice, releasing a
	// build still in flight.
	l.Claim(k, a, 0, 1)
	l.End(k, b)
	l.Ready(k, b, "x", 1)
	l.Release(k, a, false)
	l.Ready(k, a, "spec_2", 1)
	l.End(k, a)
	l.Release(k, a, true)
	l.Release(k, a, true)
	if l.Misuses() != 5 || l.Len() != 0 {
		t.Fatalf("%d misuses counted, want 5; %d entries left", l.Misuses(), l.Len())
	}
}

// TestLedgerHoldsViewsPages: the ledger answers what one session runs and
// holds — Holds, HeldViews and Pages — from its entries alone, for that
// session only.
func TestLedgerHoldsViewsPages(t *testing.T) {
	l := NewLedger(obs.NewRegistry(), true)
	a, b, c := l.NewHolder(), l.NewHolder(), l.NewHolder()
	key := func(name string) AssetKey { return AssetKey{Manip: "mat|" + name} }
	// a builds eight views, claimed against key order; b builds one that a
	// attaches to; a's build of "g" goes to c; a and b each have one in flight.
	var views []string
	for i := 7; i >= 0; i-- {
		name := fmt.Sprintf("v%d", i)
		l.Claim(key(name), a, 0, 10+i)
		l.Ready(key(name), a, "t_"+name, secs(i+1))
		views = append([]string{name}, views...)
	}
	l.Claim(key("shared"), b, 0, 4)
	l.Ready(key("shared"), b, "t_shared", secs(9))
	l.Attach(key("shared"), a, 3)
	l.Claim(key("g"), a, 0, 5)
	l.Ready(key("g"), a, "t_g", secs(2))
	l.Attach(key("g"), c, 6)
	l.Release(key("g"), a, false)
	l.Claim(key("run_a"), a, secs(1), 100)
	l.Claim(key("run_b"), b, secs(1), 1000)
	if l.Misuses() != 0 {
		t.Fatalf("%d misuses setting up", l.Misuses())
	}

	t.Run("holds", func(t *testing.T) {
		for _, tc := range []struct {
			key    string
			holder int
			want   bool
		}{
			{"run_a", a, true}, {"run_a", b, false}, {"run_b", a, false},
			{"v3", a, true}, {"v3", b, false},
			{"shared", b, true}, {"shared", a, true}, {"shared", c, false},
			{"g", a, false}, {"g", c, true}, {"absent", a, false},
		} {
			if got := l.Holds(key(tc.key), tc.holder); got != tc.want {
				t.Errorf("Holds(%s, %d) = %v, want %v", tc.key, tc.holder, got, tc.want)
			}
		}
	})
	t.Run("held_views", func(t *testing.T) {
		want := map[int][]Holding{
			a: {{Key: key("shared"), Holder: a, Worth: secs(9), Pages: 3, Table: "t_shared"}},
			b: {{Key: key("shared"), Holder: b, Worth: secs(9), Pages: 4, Table: "t_shared"}},
			c: {{Key: key("g"), Holder: c, Worth: secs(2), Pages: 6, Table: "t_g"}},
		}
		for i, name := range views {
			want[a] = append(want[a], Holding{Key: key(name), Holder: a, Worth: secs(i + 1), Pages: 10 + i, Table: "t_" + name})
		}
		slices.SortFunc(want[a], func(x, y Holding) int { return strings.Compare(x.Key.Manip, y.Key.Manip) })
		for holder, hs := range want {
			if got := l.HeldViews(holder); !slices.Equal(got, hs) {
				t.Errorf("HeldViews(%d) =\n%+v\nwant\n%+v", holder, got, hs)
			}
		}
		if got := l.HeldViews(l.NewHolder()); len(got) != 0 {
			t.Errorf("a new holder holds %+v", got)
		}
	})
	t.Run("pages", func(t *testing.T) {
		wantA := 100 + 3
		for i := range views {
			wantA += 10 + i
		}
		for holder, want := range map[int]int{a: wantA, b: 1000 + 4, c: 6} {
			if got := l.Pages(holder); got != want {
				t.Errorf("Pages(%d) = %d, want %d", holder, got, want)
			}
		}
		if got, sum := l.Footprint(), wantA+1004+6; got != sum {
			t.Errorf("Footprint = %d, want the holders' sum %d", got, sum)
		}
	})
}

func TestSharedBuildsChargeSuppression(t *testing.T) {
	cases := []struct {
		name    string
		mark    func(l *Ledger)
		closing bool
		charge  bool
	}{
		{"unpaid GC release charges", func(*Ledger) {}, false, true},
		{"paid build never charges", func(l *Ledger) { l.MarkPaid(1, "spec_1") }, false, false},
		// A consumer that never attached read the view.
		{"paid via table never charges", func(l *Ledger) { l.MarkPaid(2, "spec_1") }, false, false},
		{"shutdown release never charges", func(*Ledger) {}, true, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := NewLedger(obs.NewRegistry(), true)
			k := AssetKey{Manip: "k"}
			l.Claim(k, 1, 0, 1)
			l.Ready(k, 1, "spec_1", sim.DurationFromSeconds(1))
			tc.mark(l)
			r := l.Release(k, 1, tc.closing)
			if !r.Last {
				t.Fatal("the only holder's release did not drop")
			}
			if r.Charge != tc.charge {
				t.Fatalf("charge = %v, want %v", r.Charge, tc.charge)
			}
		})
	}
	// A table nobody holds is not an error; another session's private view is
	// not this session's to settle.
	l := NewLedger(obs.NewRegistry(), false)
	if l.MarkPaid(1, "no_such_table") {
		t.Fatal("an unknown table counted as held")
	}
	k := AssetKey{Scope: 1, Manip: "k"}
	l.Claim(k, 1, 0, 1)
	l.Ready(k, 1, "spec_1", 1)
	if l.MarkPaid(2, "spec_1") || !l.Release(k, 1, false).Charge {
		t.Fatal("a session settled another session's private view")
	}
}

func TestSharedBuildsAbortClaim(t *testing.T) {
	l := NewLedger(obs.NewRegistry(), true)
	k := AssetKey{Manip: "k"}
	l.Claim(k, 1, 0, 3)
	l.End(k, 1)
	if l.Len() != 0 {
		t.Fatal("ended claim still entered")
	}
	if !l.Claim(k, 2, 0, 3) {
		t.Fatal("key not claimable after its claim ended")
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

// TestSchedulerZeroEstPagesFloor is the admission-floor bugfix regression for
// the speculator's worker gate: a job with no cost estimate (EstPages == 0)
// must be floored to a conservative footprint, not admitted as if it were
// free.
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

	l := NewLedger(obs.NewRegistry(), false)
	cfg := DefaultConfig()
	cfg.Workers = 2
	cfg.Ledger = l
	sp := newSpec(e, cfg)
	cand := AssetKey{Scope: 1, Manip: "candidate"}
	l.Claim(cand, 1, 0, 0)
	if sp.admitExtra(cand, 0) {
		t.Fatal("unscored job admitted under pool pressure")
	}
	if sp.admitExtra(cand, -3) {
		t.Fatal("negative estimate admitted under pool pressure")
	}
	// A genuinely tiny scored job still fits.
	if !sp.admitExtra(cand, MinEstPages) {
		t.Fatal("minimal scored job deferred with headroom available")
	}
	// The worker cap counts the other jobs in flight, whoever's they are, and
	// never the candidate's own entry.
	l.Claim(AssetKey{Scope: 1, Manip: "first"}, 1, 0, 0)
	if !sp.admitExtra(cand, MinEstPages) {
		t.Fatal("deferred with one of two workers busy")
	}
	l.Claim(AssetKey{Scope: 2, Manip: "other"}, 2, 0, 0)
	if sp.admitExtra(cand, MinEstPages) {
		t.Fatal("admitted past the worker cap")
	}
}

// TestWorkerGateDefersUnderPoolPressure: a speculator allowed three workers
// gates its extra jobs itself, with no other wiring. On a pool staged until
// no footprint fits in the headroom beyond the foreground reserve, it issues
// its first job only and counts the others Deferred, here and in the
// engine's sched.* counters.
func TestWorkerGateDefersUnderPoolPressure(t *testing.T) {
	e := loadTestEngine(t, engine.New(engine.Config{BufferPoolPages: 48}), 20000)
	reserve := e.Pool.Capacity() / 4
	need := e.Pool.Headroom() - reserve - MinEstPages + 1
	for i, rel := range []string{"R", "S", "W"} {
		stagePages(t, e, rel, (need+i)/3)
	}
	sp := threeWorkers(t, e)
	st := sp.Stats()
	if len(sp.outstanding) != 1 || st.Issued != 1 || st.Deferred == 0 {
		t.Fatalf("%d outstanding, stats %+v; want one issued job and the rest deferred", len(sp.outstanding), st)
	}
	c := e.Metrics().Snapshot().Counters
	if c["sched.deferred"] != int64(st.Deferred) || c["sched.admitted"] != 0 {
		t.Fatalf("sched.deferred %d, sched.admitted %d; want %d and 0", c["sched.deferred"], c["sched.admitted"], st.Deferred)
	}
	if err := sp.Shutdown(); err != nil {
		t.Fatal(err)
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
// executable: across randomized replays — cancellations, GO-cancels, builds
// that run on across GO, garbage collection, clears — no single build
// execution may hit Stats.Waste more than once. The subtests name the GO
// policy: wait=false cancels at GO, continue runs on.
func TestWasteChargedOncePerBuild(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		for _, at := range []struct {
			name   string
			policy GoPolicy
		}{{"wait=false", GoCancel}, {"continue", GoContinue}} {
			t.Run(fmt.Sprintf("seed=%d/%s", seed, at.name), func(t *testing.T) {
				// Small relations: the replay materializes three-way joins,
				// whose row counts grow quadratically with relation size.
				e := newTestEngine(t, 400)
				cfg := DefaultConfig()
				cfg.MinBenefit = 0
				cfg.AtGo = at.policy
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
	sb := NewLedger(e.Metrics(), true)
	specs := make([]*Speculator, 3)
	for i := range specs {
		cfg := DefaultConfig()
		cfg.MinBenefit = 0
		cfg.NamePrefix = fmt.Sprintf("cse_u%d", i)
		cfg.Ledger = sb
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
	sb := NewLedger(e.Metrics(), true)
	mkSpec := func(prefix string) *Speculator {
		cfg := DefaultConfig()
		cfg.NamePrefix = prefix
		cfg.Ledger = sb
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
	sb := NewLedger(e.Metrics(), true)
	mkSpec := func(prefix string) *Speculator {
		cfg := DefaultConfig()
		cfg.NamePrefix = prefix
		cfg.Ledger = sb
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
