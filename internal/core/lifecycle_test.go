package core

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"specdb/internal/catalog"
	"specdb/internal/engine"
	"specdb/internal/qgraph"
	"specdb/internal/sim"
	"specdb/internal/trace"
	"specdb/internal/tuple"
)

// lifecycleKind is one way to get a single job of a given kind outstanding.
type lifecycleKind struct {
	name string
	// configure sets the manipulation family up on a default config.
	configure func(e *engine.Engine, cfg *Config)
	// issue is the event that makes the speculator issue the job;
	// invalidate the one that makes the partial query stop indicating it.
	issue, invalidate trace.Event
	// breakPublish makes publishing the completed job fail (nil: it cannot).
	breakPublish func(e *engine.Engine, job *Job) error
}

// checkLedger requires the ledger to hold one in-flight entry per job
// outstanding at sp, entered under sp with the job's benefit and pages, and no
// other in-flight holding of sp's; its ready entries to be what checkHeldViews
// says a held view is; and no write to have misused it.
func checkLedger(t *testing.T, when string, sp *Speculator) {
	t.Helper()
	l := sp.cfg.Ledger
	checkHeldViews(t, when, l, sp.eng.Catalog, []int{sp.holder})
	l.mu.Lock()
	defer l.mu.Unlock()
	inFlight := 0
	for _, a := range l.assets {
		if !a.ready && a.holdIndex(sp.holder) >= 0 {
			inFlight++
		}
	}
	if inFlight != len(sp.outstanding) {
		t.Errorf("%s: the ledger has %d in-flight holdings of session %d, which has %d jobs", when, inFlight, sp.holder, len(sp.outstanding))
	}
	for _, job := range sp.outstanding {
		a := l.assets[job.asset]
		if a == nil || a.ready || a.builder != sp.holder || len(a.holds) != 1 ||
			a.holds[0] != (Holding{Key: job.asset, Holder: sp.holder, Worth: job.Manip.Benefit, Pages: job.Manip.EstPages}) {
			t.Errorf("%s: outstanding %s is entered as %+v", when, job.Manip.Key(), a)
		}
	}
	if l.misuses != 0 {
		t.Errorf("%s: %d ledger misuses", when, l.misuses)
	}
}

// checkHeldViews holds the ledger's ready entries to what a held view is:
// every hold on one carries the entry's table and ranks by its build cost;
// the entry's table is a view registered in cat, and every view registered in
// cat is some ready entry's table; and HeldViews lists exactly each of
// holders' ready holds, in manipulation-key order.
func checkHeldViews(t *testing.T, when string, l *Ledger, cat *catalog.Catalog, holders []int) {
	t.Helper()
	lists := map[int][]Holding{}
	for _, holder := range holders {
		lists[holder] = l.HeldViews(holder)
	}
	want := map[int]map[AssetKey]Holding{}
	tables := map[string]bool{}
	l.mu.Lock()
	for key, a := range l.assets {
		if !a.ready {
			continue
		}
		tables[a.table] = true
		if cat.View(a.table) == nil {
			t.Errorf("%s: ready entry %v has table %s, which is no registered view", when, key, a.table)
		}
		for _, h := range a.holds {
			if h.Key != key || h.Table != a.table || h.Worth != a.cost {
				t.Errorf("%s: ready entry %v (table %s, cost %v) is held as %+v", when, key, a.table, a.cost, h)
			}
			if want[h.Holder] == nil {
				want[h.Holder] = map[AssetKey]Holding{}
			}
			want[h.Holder][key] = h
		}
	}
	l.mu.Unlock()
	for _, v := range cat.Views() {
		if !tables[v.Name] {
			t.Errorf("%s: view %s is reachable by the optimizer, no ready entry has it", when, v.Name)
		}
	}
	for holder, list := range lists {
		got := map[AssetKey]Holding{}
		for _, h := range list {
			got[h.Key] = h
		}
		if len(got) != len(list) || !maps.Equal(got, want[holder]) {
			t.Errorf("%s: HeldViews(%d) = %+v, the ledger's ready holds of %d are %+v", when, holder, list, holder, want[holder])
		}
		if !slices.IsSortedFunc(list, func(a, b Holding) int { return strings.Compare(a.Key.Manip, b.Key.Manip) }) {
			t.Errorf("%s: HeldViews(%d) out of key order: %+v", when, holder, list)
		}
	}
}

func lifecycleKinds() []lifecycleKind {
	wEq := qgraph.Selection{Rel: "W", Col: "d", Op: tuple.CmpEQ, Const: tuple.NewInt(777)}
	wLt := qgraph.Selection{Rel: "W", Col: "d", Op: tuple.CmpLT, Const: tuple.NewInt(500)}
	dropW := func(e *engine.Engine, _ *Job) error { return e.DropTable("W") }
	dropBuild := func(e *engine.Engine, job *Job) error { return e.DropTable(job.tableName) }
	only := func(ops OpSet) func(*engine.Engine, *Config) {
		return func(_ *engine.Engine, cfg *Config) { cfg.Ops, cfg.MinBenefit = ops, 0 }
	}
	return []lifecycleKind{
		{"materialize", func(*engine.Engine, *Config) {}, evAddSel(selRC(18)), evRemoveSel(selRC(18)), dropBuild},
		{"shared_owner", func(e *engine.Engine, cfg *Config) { cfg.Ledger = NewLedger(e.Metrics(), true) },
			evAddSel(selRC(18)), evRemoveSel(selRC(18)), dropBuild},
		{"index", only(OpSet{Index: true}), evAddSel(wEq), evRemoveSel(wEq), dropW},
		{"histogram", only(OpSet{Histogram: true}), evAddSel(wLt), evRemoveSel(wLt), dropW},
		{"stage", only(OpSet{Stage: true}), evAddSel(selRC(18)), trace.Event{Kind: trace.EvRemoveRelation, Rel: "R"}, nil},
		{"predicted_final", func(_ *engine.Engine, cfg *Config) {
			// Trained to expect the one-selection query as the final; a second
			// selection takes the canvas past it.
			final := qgraph.SelectionSubgraph(selRC(18))
			cfg.Ops, cfg.MinBenefit = OpSet{}, 0
			cfg.Predictor = NewPredictor(PredictorConfig{})
			cfg.Predictor.ObserveFinal([]string{final.Key()}, "", final, nil)
		}, evAddSel(selRC(18)), evAddSel(selRC(5)), nil},
	}
}

// TestLifecycleTable drives one job of every manipulation kind to every
// terminal it can reach and checks what finish owns (DESIGN.md §16): exactly
// one terminal counter moves, every registration the job held is released —
// after every transition the ledger holds exactly what outstanding and held
// say, on a non-sharing and on a sharing ledger — the waste ledger charges the
// build at most once, and the breaker gets the right verdict — each job runs as the half-open probe of a tripped breaker, so a
// cancel must re-open it, a completion close it, an abort re-trip it. The
// speculators cancel at GO (GoCancel), so that canceled_at_go is reachable;
// one more row per kind, continued_at_go, lets a GO pass under GoContinue
// first: the job must come out of it untouched and then complete.
func TestLifecycleTable(t *testing.T) {
	const issueAt = 31 // seconds: past the breaker's 30 s cooldown
	neutral := trace.Event{Kind: trace.EvSetProjections}
	type row struct {
		name string
		want Terminal
		atGo GoPolicy
	}
	var rows []row
	for want := Terminal(0); want < numTerminals; want++ {
		rows = append(rows, row{want.String(), want, GoCancel})
	}
	rows = append(rows, row{"continued_at_go", TermCompleted, GoContinue})
	for _, kind := range lifecycleKinds() {
		for _, r := range rows {
			want := r.want
			if want == TermAborted && kind.breakPublish == nil {
				continue // publishing a staged relation or a predicted answer cannot fail
			}
			t.Run(fmt.Sprintf("%s/%s", kind.name, r.name), func(t *testing.T) {
				e := newTestEngine(t, 20000)
				if err := e.ColdStart(); err != nil {
					t.Fatal(err)
				}
				cfg := DefaultConfig()
				cfg.AtGo = r.atGo
				cfg.Governor = NewGovernor(e.Pool)
				cfg.Ledger = NewLedger(e.Metrics(), false)
				kind.configure(e, &cfg)
				sp := newSpec(e, cfg)
				for i := 0; i < 3; i++ {
					sp.breaker.failure(0)
				}
				out, err := sp.OnEvent(kind.issue, sim.FromSeconds(issueAt))
				if err != nil {
					t.Fatal(err)
				}
				job := one(out.Issued)
				if job == nil || sp.breaker.state != breakerHalfOpen {
					t.Fatalf("no probe job issued (job %v, breaker %v)", job, sp.breaker.state)
				}
				if n := cfg.Ledger.InFlight(AssetKey{}); n != 1 {
					t.Fatalf("issued job not registered once: %d in flight", n)
				}
				checkLedger(t, "after start", sp)
				before := sp.Stats()
				mid := job.IssuedAt.Add(job.CompletesAt.Sub(job.IssuedAt) / 2)

				var ended []*Job
				switch want {
				case TermCompleted, TermAborted:
					if want == TermAborted {
						if err := kind.breakPublish(e, job); err != nil {
							t.Fatal(err)
						}
					}
					if r.atGo == GoContinue {
						completesAt := job.CompletesAt
						if _, out, err = sp.OnGo(mid); err != nil {
							t.Fatal(err)
						}
						if len(out.Canceled)+len(out.Issued) != 0 || len(sp.outstanding) != 1 ||
							sp.outstanding[0] != job || job.CompletesAt != completesAt {
							t.Fatalf("the GO touched the job: outcome %+v, outstanding %v", out, sp.outstanding)
						}
						if st := sp.Stats(); st.ContinuedAtGo != 1 || st.Terminals() != before.Terminals() {
							t.Fatalf("stats after the GO %+v", st)
						}
						checkLedger(t, "after GO", sp)
						err = sp.Advance(completesAt)
					} else {
						_, err = sp.Complete(job, job.CompletesAt)
					}
					if err != nil {
						t.Fatal(err)
					}
					ended = []*Job{job}
				case TermCanceledInvalidated:
					out, err = sp.OnEvent(kind.invalidate, mid)
					ended = out.Canceled
				case TermCanceledAtGo:
					_, out, err = sp.OnGo(mid)
					ended = out.Canceled
				case TermCanceledOnClose:
					ended = sp.CancelOutstanding()
				case TermDeadlineExceeded:
					job.Deadline = mid
					out, err = sp.OnEvent(neutral, mid)
					ended = out.Canceled
				case TermShed:
					// Pressure from another session, and a second, worthier asset
					// of this one: the governor never sheds a session's last.
					other := cfg.Ledger.NewHolder()
					pressure := AssetKey{Scope: other, Manip: "pressure"}
					worthier := AssetKey{Scope: sp.holder, Manip: "worthier"}
					cfg.Ledger.Claim(pressure, other, 0, 100*e.Pool.Capacity())
					cfg.Ledger.Claim(worthier, sp.holder, job.Manip.Benefit+1, 1)
					out, err = sp.OnEvent(neutral, mid)
					ended = out.Canceled
					cfg.Ledger.End(pressure, other)
					cfg.Ledger.End(worthier, sp.holder)
				}
				if err != nil {
					t.Fatal(err)
				}
				if len(ended) != 1 || ended[0] != job {
					t.Fatalf("ended %v, want exactly the probe job", ended)
				}

				after := sp.Stats()
				for tt := Terminal(0); tt < numTerminals; tt++ {
					moved := *after.terminal(tt) - *before.terminal(tt)
					if (tt == want) != (moved == 1) || (tt != want && moved != 0) {
						t.Errorf("terminal %v moved by %d ending a job as %v", tt, moved, want)
					}
				}
				if after.Issued != before.Issued || len(sp.outstanding) != 0 {
					t.Errorf("the terminal left work behind: issued %d→%d, %d outstanding", before.Issued, after.Issued, len(sp.outstanding))
				}
				if n := cfg.Ledger.InFlight(AssetKey{}); n != 0 {
					t.Errorf("in-flight registration leaked: %d in flight", n)
				}
				checkLedger(t, "after "+r.name, sp)
				held := 0
				if want == TermCompleted && job.Manip.Kind == ManipMaterialize {
					held = 1 // the view stays a retained, sheddable asset
				}
				if got := cfg.Ledger.Len(); got != held || cfg.Ledger.IsReady(job.asset) != (held == 1) {
					t.Errorf("ledger has %d entries (the job's ready: %v), want %d", got, cfg.Ledger.IsReady(job.asset), held)
				}
				if got := cfg.Ledger.Pages(sp.holder); got != held*job.Manip.EstPages || got != cfg.Ledger.Footprint() {
					t.Errorf("retained pages %d (ledger: %d), want %d", got, cfg.Ledger.Footprint(), held*job.Manip.EstPages)
				}
				wantBreaker := breakerOpen
				if want == TermCompleted {
					wantBreaker = breakerClosed
				}
				if got := sp.breaker.state; got != wantBreaker {
					t.Errorf("breaker %v after the probe ended %v, want %v", got, want, wantBreaker)
				}
				if job.Manip.Kind == ManipPredictFinal && after.PredictedIssued != after.PredictedCompleted+after.PredictedCanceled {
					t.Errorf("predicted job unaccounted: %+v", after)
				}

				if err := sp.Shutdown(); err != nil {
					t.Fatal(err)
				}
				st := sp.Stats()
				if st.Issued != st.Terminals() {
					t.Errorf("issued %d != terminals %d: %+v", st.Issued, st.Terminals(), st)
				}
				if cfg.Ledger.Pages(sp.holder) != 0 || cfg.Ledger.Len() != 0 || cfg.Ledger.Misuses() != 0 {
					t.Errorf("after Shutdown: %d retained pages, %d ledger entries, %d misuses",
						cfg.Ledger.Pages(sp.holder), cfg.Ledger.Len(), cfg.Ledger.Misuses())
				}
				ledger := sp.WasteCharges()
				if len(ledger) > 1 || (want == TermCompleted) != (len(ledger) == 0) {
					t.Errorf("waste ledger after %v: %v", want, ledger)
				}
				for id, n := range ledger {
					if n != 1 {
						t.Errorf("build %s charged %d times", id, n)
					}
				}
			})
		}
	}
}

// TestHeldViewDropReasons lets go of a held view for each reason from each
// position a holder can be in: a private view's only holder, a shared view's
// owner or adopter while the other still holds it, and its last holder. The
// table goes with the last holder only; an unused build is charged once, by
// whoever drops the table, never at close.
func TestHeldViewDropReasons(t *testing.T) {
	type holder struct {
		name          string
		shared        bool
		dropper       int  // which session drops under test: 0 builds, 1 adopts
		otherLetsGo   bool // the other session releases first: dropper is the last holder
		wantDropped   bool
		countsAsBuilt bool // the dropper built the view
	}
	holders := []holder{
		{name: "private", wantDropped: true, countsAsBuilt: true},
		{name: "owner_beside_adopter", shared: true, countsAsBuilt: true},
		{name: "adopter_beside_owner", shared: true, dropper: 1},
		{name: "last_holder", shared: true, otherLetsGo: true, wantDropped: true, countsAsBuilt: true},
	}
	for _, h := range holders {
		for _, reason := range []dropReason{dropGC, dropShed, dropClose} {
			t.Run(fmt.Sprintf("%s/reason%d", h.name, reason), func(t *testing.T) {
				e := newTestEngine(t, 20000)
				gov := NewGovernor(e.Pool)
				sb := NewLedger(e.Metrics(), h.shared)
				var sps [2]*Speculator
				for i, prefix := range []string{"built", "adopted"} {
					cfg := DefaultConfig()
					cfg.NamePrefix, cfg.Ledger, cfg.Governor = prefix, sb, gov
					sps[i] = newSpec(e, cfg)
				}
				check := func(when string) {
					t.Helper()
					for _, s := range sps {
						checkLedger(t, when, s)
					}
				}
				out, err := sps[0].OnEvent(evAddSel(selRC(18)), 0)
				if err != nil || one(out.Issued) == nil {
					t.Fatalf("no build issued: %v", err)
				}
				job := one(out.Issued)
				if _, err := sps[0].Complete(job, job.CompletesAt); err != nil {
					t.Fatal(err)
				}
				// viewOf is s's one hold on a view, or a zero Holding.
				viewOf := func(s *Speculator) Holding {
					if hs := sb.HeldViews(s.holder); len(hs) == 1 {
						return hs[0]
					}
					return Holding{}
				}
				if h.shared {
					if _, err := sps[1].OnEvent(evAddSel(selRC(18)), job.CompletesAt); err != nil {
						t.Fatal(err)
					}
					if !sb.Holds(job.asset, sps[1].holder) {
						t.Fatal("second session did not adopt the shared build")
					}
				}
				check("after publish and adoption")
				if h.otherLetsGo {
					if err := sps[1].dropHeld(viewOf(sps[1]), dropClose); err != nil {
						t.Fatal(err)
					}
				}

				sp := sps[h.dropper]
				if hv := viewOf(sp); hv.Key != job.asset || hv.Table != job.tableName {
					t.Fatalf("session %d holds %+v, want the build", h.dropper, hv)
				}
				if err := sp.dropHeld(viewOf(sp), reason); err != nil {
					t.Fatal(err)
				}
				check("after the drop")
				st := sp.Stats()
				if sb.Holds(job.asset, sp.holder) || len(sb.HeldViews(sp.holder)) != 0 || sb.Pages(sp.holder) != 0 {
					t.Errorf("view still held: %d retained pages", sb.Pages(sp.holder))
				}
				if got := e.Catalog.HasTable(job.tableName); got == h.wantDropped {
					t.Errorf("table present %v, want dropped %v", got, h.wantDropped)
				}
				if entered := sb.Len() == 1; entered == h.wantDropped {
					t.Errorf("ledger entry present %v after dropped %v", entered, h.wantDropped)
				}
				wantWaste := h.wantDropped && reason != dropClose
				if (st.Waste > 0) != wantWaste || len(sp.WasteCharges()) > 1 {
					t.Errorf("waste %v (ledger %v), want charged %v", st.Waste, sp.WasteCharges(), wantWaste)
				}
				if want := reason == dropShed; (st.ShedRetained == 1) != want {
					t.Errorf("ShedRetained %d for reason %d", st.ShedRetained, reason)
				}
				if want := h.countsAsBuilt && reason != dropClose; (st.GarbageCollected == 1) != want {
					t.Errorf("GarbageCollected %d, want counted %v", st.GarbageCollected, want)
				}
				for _, s := range sps {
					if err := s.Shutdown(); err != nil {
						t.Fatal(err)
					}
				}
				if e.Catalog.HasTable(job.tableName) || sb.Len() != 0 || sb.Misuses() != 0 {
					t.Errorf("after both sessions closed: table %v, %d ledger entries, %d misuses",
						e.Catalog.HasTable(job.tableName), sb.Len(), sb.Misuses())
				}
			})
		}
	}
}

// TestUnrunBuildIsItsOwnWasteCharge cancels an index build at its issue
// instant, re-issues the same key at that instant and cancels the re-issue a
// second later. The build that never ran still ends as waste, but under its
// own name: key@issue-instant alone would name both builds and read as one
// build charged twice.
func TestUnrunBuildIsItsOwnWasteCharge(t *testing.T) {
	e := newTestEngine(t, 20000)
	if err := e.ColdStart(); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Ops = OpSet{Index: true}
	cfg.MinBenefit = 0
	sp := newSpec(e, cfg)
	sel := qgraph.Selection{Rel: "W", Col: "d", Op: tuple.CmpEQ, Const: tuple.NewInt(777)}
	at := sim.FromSeconds(5)
	var keys []string
	for _, cancelAt := range []sim.Time{at, at.Add(sim.DurationFromSeconds(1))} {
		out, err := sp.OnEvent(evAddSel(sel), at)
		if err != nil {
			t.Fatal(err)
		}
		job := one(out.Issued)
		if job == nil {
			t.Fatal("no index job issued")
		}
		keys = append(keys, job.Manip.Key())
		if out, err = sp.OnEvent(evRemoveSel(sel), cancelAt); err != nil {
			t.Fatal(err)
		}
		if one(out.Canceled) != job {
			t.Fatalf("index job not canceled at %v", cancelAt)
		}
	}
	if keys[0] != keys[1] {
		t.Fatalf("re-issued a different build: %s, then %s", keys[0], keys[1])
	}
	ledger := sp.WasteCharges()
	if len(ledger) != 2 {
		t.Errorf("waste ledger %v, want both builds", ledger)
	}
	for id, n := range ledger {
		if n != 1 {
			t.Errorf("build %s charged %d times", id, n)
		}
	}
	if st := sp.Stats(); st.CanceledInvalidated != 2 || st.Waste <= 0 {
		t.Errorf("stats %+v, want two canceled builds and the second's run as waste", st)
	}
}
