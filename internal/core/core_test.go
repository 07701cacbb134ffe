package core

import (
	"math"
	"math/big"
	"strings"
	"testing"

	"specdb/internal/engine"
	"specdb/internal/plan"
	"specdb/internal/qgraph"
	"specdb/internal/sim"
	"specdb/internal/trace"
	"specdb/internal/tuple"
)

// newTestEngine loads the Figure 2 relations R(a,c), S(a,b), W(b,d).
func newTestEngine(t *testing.T, n int) *engine.Engine {
	t.Helper()
	return loadTestEngine(t, engine.New(engine.Config{BufferPoolPages: 256}), n)
}

// loadTestEngine loads the Figure 2 relations, n rows each, into e.
func loadTestEngine(t *testing.T, e *engine.Engine, n int) *engine.Engine {
	t.Helper()
	mk := func(name string, cols [2]string, gen func(i int) (int64, int64)) {
		schema := tuple.NewSchema(
			tuple.Column{Name: cols[0], Kind: tuple.KindInt},
			tuple.Column{Name: cols[1], Kind: tuple.KindInt},
		)
		if _, err := e.CreateTable(name, schema); err != nil {
			t.Fatal(err)
		}
		rows := make([]tuple.Row, n)
		for i := 0; i < n; i++ {
			a, b := gen(i)
			rows[i] = tuple.Row{tuple.NewInt(a), tuple.NewInt(b)}
		}
		if err := e.InsertRows(name, rows); err != nil {
			t.Fatal(err)
		}
		if err := e.Analyze(name, nil); err != nil {
			t.Fatal(err)
		}
	}
	mk("R", [2]string{"a", "c"}, func(i int) (int64, int64) { return int64(i % 50), int64(i % 23) })
	mk("S", [2]string{"a", "b"}, func(i int) (int64, int64) { return int64(i % 50), int64(i % 31) })
	mk("W", [2]string{"b", "d"}, func(i int) (int64, int64) { return int64(i % 31), int64(i * 37 % 3000) })
	return e
}

func selRC(c int64) qgraph.Selection {
	return qgraph.Selection{Rel: "R", Col: "c", Op: tuple.CmpGT, Const: tuple.NewInt(c)}
}

func evAddSel(s qgraph.Selection) trace.Event {
	sj := trace.FromSelection(s)
	return trace.Event{Kind: trace.EvAddSelection, Sel: &sj}
}

func evRemoveSel(s qgraph.Selection) trace.Event {
	sj := trace.FromSelection(s)
	return trace.Event{Kind: trace.EvRemoveSelection, Sel: &sj}
}

func evAddJoin(j qgraph.Join) trace.Event {
	jj := trace.FromJoin(j)
	return trace.Event{Kind: trace.EvAddJoin, Join: &jj}
}

// one unwraps a single-worker outcome list: the lone job, or nil. The tests
// below run the default Workers=1 configuration, where every outcome carries
// at most one job.
func one(jobs []*Job) *Job {
	if len(jobs) == 0 {
		return nil
	}
	return jobs[0]
}

func newSpec(e *engine.Engine, cfg Config) *Speculator {
	return NewSpeculator(e, NewLearner(DefaultLearnerConfig()), cfg)
}

func TestSpeculatorIssuesAndCompletes(t *testing.T) {
	e := newTestEngine(t, 20000)
	sp := newSpec(e, DefaultConfig())

	out, err := sp.OnEvent(evAddSel(selRC(18)), sim.FromSeconds(0))
	if err != nil {
		t.Fatal(err)
	}
	if one(out.Issued) == nil {
		t.Fatal("selective predicate should trigger a materialization")
	}
	job := one(out.Issued)
	if job.Manip.Kind != ManipMaterialize {
		t.Fatalf("issued %v", job.Manip)
	}
	if !job.Manip.Graph.Equal(qgraph.SelectionSubgraph(selRC(18))) {
		t.Fatalf("materialized graph %v", job.Manip.Graph)
	}
	if job.CompletesAt <= job.IssuedAt {
		t.Fatalf("completion %v not after issue %v", job.CompletesAt, job.IssuedAt)
	}
	// Hidden until completion: the table exists but no view is registered.
	if !e.Catalog.HasTable(job.tableName) {
		t.Fatal("materialized table missing")
	}
	if e.Catalog.View(job.tableName) != nil {
		t.Fatal("view visible before completion")
	}

	next, err := sp.Complete(job, job.CompletesAt)
	if err != nil {
		t.Fatal(err)
	}
	if v := e.Catalog.View(job.tableName); v == nil || !v.Forced {
		t.Fatal("view not registered as forced on completion")
	}
	// Slot freed: the speculator may chain another manipulation, but for a
	// single-selection partial query nothing new should clear the filter.
	if n := one(next); n != nil {
		t.Fatalf("unexpected chained job %v", n.Manip)
	}

	// GO: final query must be rewritten to the speculative table.
	res, goOut, err := sp.OnGo(job.CompletesAt.Add(sim.DurationFromSeconds(5)))
	if err != nil {
		t.Fatal(err)
	}
	if one(goOut.Canceled) != nil {
		t.Fatal("nothing should be in flight at GO")
	}
	if !strings.Contains(plan.Explain(res.Plan), job.tableName) {
		t.Fatalf("final query not rewritten:\n%s", plan.Explain(res.Plan))
	}
	want := 0
	for i := 0; i < 20000; i++ {
		if i%23 > 18 {
			want++
		}
	}
	if int(res.RowCount) != want {
		t.Fatalf("rewritten result %d rows, want %d", res.RowCount, want)
	}
	st := sp.Stats()
	if st.Issued != 1 || st.Completed != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestSpeculatorCancelsOnInvalidation(t *testing.T) {
	e := newTestEngine(t, 20000)
	sp := newSpec(e, DefaultConfig())

	out, err := sp.OnEvent(evAddSel(selRC(18)), 0)
	if err != nil {
		t.Fatal(err)
	}
	if one(out.Issued) == nil {
		t.Fatal("no job issued")
	}
	job := one(out.Issued)
	table := job.tableName

	// Removing the predicate invalidates the running materialization.
	out2, err := sp.OnEvent(evRemoveSel(selRC(18)), sim.FromSeconds(1))
	if err != nil {
		t.Fatal(err)
	}
	if one(out2.Canceled) != job {
		t.Fatal("job not canceled on invalidation")
	}
	if e.Catalog.HasTable(table) {
		t.Fatal("canceled materialization left its table behind")
	}
	if sp.Stats().CanceledInvalidated != 1 {
		t.Fatalf("stats %+v", sp.Stats())
	}
}

func TestSpeculatorCancelsAtGo(t *testing.T) {
	e := newTestEngine(t, 20000)
	cfg := DefaultConfig()
	cfg.AtGo = GoCancel
	sp := newSpec(e, cfg)

	out, err := sp.OnEvent(evAddSel(selRC(18)), 0)
	if err != nil {
		t.Fatal(err)
	}
	job := one(out.Issued)
	if job == nil {
		t.Fatal("no job issued")
	}
	// GO arrives before CompletesAt: the manipulation is canceled and the
	// final query runs WITHOUT the materialization.
	res, goOut, err := sp.OnGo(sim.FromSeconds(0.5))
	if err != nil {
		t.Fatal(err)
	}
	if one(goOut.Canceled) != job {
		t.Fatal("in-flight job not canceled at GO")
	}
	if strings.Contains(plan.Explain(res.Plan), job.tableName) {
		t.Fatal("final query used an incomplete materialization")
	}
	if e.Catalog.HasTable(job.tableName) {
		t.Fatal("canceled table leaked")
	}
	if sp.Stats().CanceledAtGo != 1 {
		t.Fatalf("stats %+v", sp.Stats())
	}
}

// TestSpeculatorContinuesAtGo: under the default GO policy a job in flight at
// GO runs on across it — same CompletesAt, same ledger entry, nothing
// canceled — completes through Advance at its own instant, and its view
// serves the next GO.
func TestSpeculatorContinuesAtGo(t *testing.T) {
	e := newTestEngine(t, 20000)
	cfg := DefaultConfig()
	cfg.Ledger = NewLedger(e.Metrics(), false)
	sp := newSpec(e, cfg)

	out, err := sp.OnEvent(evAddSel(selRC(18)), 0)
	if err != nil {
		t.Fatal(err)
	}
	job := one(out.Issued)
	if job == nil {
		t.Fatal("no job issued")
	}
	completesAt, asset := job.CompletesAt, job.asset
	goAt := completesAt / 2
	res, goOut, err := sp.OnGo(goAt)
	if err != nil {
		t.Fatal(err)
	}
	if len(goOut.Canceled) != 0 || len(goOut.Issued) != 0 {
		t.Fatalf("GO ended or issued jobs: %+v", goOut)
	}
	if strings.Contains(plan.Explain(res.Plan), job.tableName) {
		t.Fatal("final query used an incomplete materialization")
	}
	if len(sp.outstanding) != 1 || sp.outstanding[0] != job || job.CompletesAt != completesAt || job.asset != asset {
		t.Fatalf("the job did not run on: outstanding %v, completes at %v (was %v)", sp.outstanding, job.CompletesAt, completesAt)
	}
	if n := cfg.Ledger.InFlight(AssetKey{}); n != 1 || cfg.Ledger.IsReady(asset) {
		t.Fatalf("ledger entry changed at GO: %d in flight, ready %v", n, cfg.Ledger.IsReady(asset))
	}
	checkLedger(t, "after GO", sp)
	if st := sp.Stats(); st.ContinuedAtGo != 1 || st.Terminals() != 0 {
		t.Fatalf("stats after GO %+v", st)
	}

	if err := sp.Advance(completesAt - 1); err != nil {
		t.Fatal(err)
	}
	if len(sp.outstanding) != 1 {
		t.Fatal("the job completed before its instant")
	}
	if err := sp.Advance(completesAt); err != nil {
		t.Fatal(err)
	}
	if st := sp.Stats(); st.Completed != 1 || st.Terminals() != 1 || !cfg.Ledger.IsReady(asset) {
		t.Fatalf("the job did not complete at its instant: stats %+v", st)
	}
	checkLedger(t, "after Advance", sp)

	res, _, err = sp.OnGo(completesAt.Add(sim.DurationFromSeconds(1)))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.Explain(res.Plan), job.tableName) {
		t.Fatalf("the next GO did not read the continued job's view:\n%s", plan.Explain(res.Plan))
	}
	if st := sp.Stats(); st.Hits != 1 || st.ContinuedAtGo != 1 {
		t.Fatalf("stats after the second GO %+v", st)
	}
}

func TestSpeculatorGarbageCollection(t *testing.T) {
	e := newTestEngine(t, 20000)
	sp := newSpec(e, DefaultConfig())

	out, err := sp.OnEvent(evAddSel(selRC(18)), 0)
	if err != nil {
		t.Fatal(err)
	}
	job := one(out.Issued)
	if _, err := sp.Complete(job, job.CompletesAt); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sp.OnGo(job.CompletesAt.Add(sim.DurationFromSeconds(1))); err != nil {
		t.Fatal(err)
	}
	// The predicate persists → the result must persist (inter-query reuse).
	if !e.Catalog.HasTable(job.tableName) {
		t.Fatal("materialization dropped while still useful")
	}
	// Removing the predicate on the next formulation triggers GC.
	if _, err := sp.OnEvent(evRemoveSel(selRC(18)), job.CompletesAt.Add(sim.DurationFromSeconds(10))); err != nil {
		t.Fatal(err)
	}
	if e.Catalog.HasTable(job.tableName) {
		t.Fatal("stale materialization not garbage-collected")
	}
	if sp.Stats().GarbageCollected != 1 {
		t.Fatalf("stats %+v", sp.Stats())
	}
}

func TestSpeculatorOneOutstanding(t *testing.T) {
	e := newTestEngine(t, 20000)
	sp := newSpec(e, DefaultConfig())

	out1, err := sp.OnEvent(evAddSel(selRC(18)), 0)
	if err != nil {
		t.Fatal(err)
	}
	if one(out1.Issued) == nil {
		t.Fatal("first event should issue")
	}
	// A second attractive predicate arrives while the first job runs: the
	// speculator must NOT issue a second concurrent manipulation.
	out2, err := sp.OnEvent(evAddSel(qgraph.Selection{
		Rel: "W", Col: "d", Op: tuple.CmpLT, Const: tuple.NewInt(100),
	}), sim.FromSeconds(0.1))
	if err != nil {
		t.Fatal(err)
	}
	if one(out2.Issued) != nil {
		t.Fatal("second manipulation issued while one outstanding")
	}
	// After completion the slot frees and the W predicate gets its turn.
	next, err := sp.Complete(one(out1.Issued), one(out1.Issued).CompletesAt)
	if err != nil {
		t.Fatal(err)
	}
	if n := one(next); n == nil || n.Manip.Kind != ManipMaterialize || !n.Manip.Graph.HasRelation("W") {
		t.Fatalf("chained job wrong: %+v", next)
	}
}

func TestSpeculatorJoinSubgraphEnumeration(t *testing.T) {
	e := newTestEngine(t, 15000)
	cfg := DefaultConfig()
	cfg.MinBenefit = 0
	sp := newSpec(e, cfg)

	// Selection then join: once both are present, the join manipulation
	// (with attached selection) should eventually be issued.
	out, err := sp.OnEvent(evAddSel(selRC(15)), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Complete(one(out.Issued), one(out.Issued).CompletesAt); err != nil {
		t.Fatal(err)
	}
	out2, err := sp.OnEvent(evAddJoin(qgraph.NewJoin("R", "a", "S", "a")), sim.FromSeconds(30))
	if err != nil {
		t.Fatal(err)
	}
	if one(out2.Issued) == nil {
		t.Fatal("join edge should trigger a manipulation")
	}
	g := one(out2.Issued).Manip.Graph
	if g.NumJoins() != 1 || !g.HasSelection(selRC(15)) {
		t.Fatalf("join subgraph must include attached selections: %v", g)
	}
}

func TestSpeculatorSelectionsOnlyMode(t *testing.T) {
	e := newTestEngine(t, 15000)
	cfg := DefaultConfig()
	cfg.SelectionsOnly = true
	cfg.MinBenefit = 0
	sp := newSpec(e, cfg)

	if _, err := sp.OnEvent(evAddJoin(qgraph.NewJoin("R", "a", "S", "a")), 0); err != nil {
		t.Fatal(err)
	}
	// Only a join on canvas: selections-only mode must not materialize it.
	if len(sp.outstanding) != 0 {
		t.Fatalf("selections-only mode issued %v", sp.outstanding[0].Manip)
	}
	out, err := sp.OnEvent(evAddSel(selRC(15)), sim.FromSeconds(1))
	if err != nil {
		t.Fatal(err)
	}
	if one(out.Issued) == nil || one(out.Issued).Manip.Graph.NumJoins() != 0 {
		t.Fatal("selection manipulation expected")
	}
}

func TestSpeculatorShutdown(t *testing.T) {
	e := newTestEngine(t, 15000)
	sp := newSpec(e, DefaultConfig())
	out, err := sp.OnEvent(evAddSel(selRC(18)), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Complete(one(out.Issued), one(out.Issued).CompletesAt); err != nil {
		t.Fatal(err)
	}
	table := one(out.Issued).tableName
	if err := sp.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if e.Catalog.HasTable(table) {
		t.Fatal("shutdown leaked speculative table")
	}
}

// TestTheorem31 validates the paper's central reduction on the engine: for
// the toy universe Q = {q1=σθ(R), q2=R⋈S, q3=σθ(R)⋈S}, minimizing the
// explicit expectation (1) agrees with minimizing the local Cost⊆ formula
// (2), because the engine's cost function approximately satisfies
// containment dependence (P1) and linearity (P2).
func TestTheorem31(t *testing.T) {
	e := newTestEngine(t, 30000)
	theta := selRC(20) // selective: i%23 > 20 → ≈2/23 of R

	q1 := qgraph.SelectionSubgraph(theta)
	q2 := qgraph.New()
	q2.AddJoin(qgraph.NewJoin("R", "a", "S", "a"))
	q3 := q2.Clone()
	q3.AddSelection(theta)

	costOf := func(g *qgraph.Graph) float64 {
		node, err := e.PlanGraph(g)
		if err != nil {
			t.Fatal(err)
		}
		return node.Cost().Seconds()
	}
	// cost(q, m∅): no views.
	c1, c2, c3 := costOf(q1), costOf(q2), costOf(q3)

	// Apply m1 = materialization of q1 (forced rewriting).
	if _, err := e.Materialize("m1", q1, true); err != nil {
		t.Fatal(err)
	}
	c1m, c2m, c3m := costOf(q1), costOf(q2), costOf(q3)

	// P1 check: q2 does not contain q1, so its cost is unchanged.
	if c2m != c2 {
		t.Fatalf("P1 violated: cost(q2) changed %v -> %v", c2, c2m)
	}

	// Explicit expectation over Q with f(q1)=0.2, f(q2)=0.3, f(q3)=0.5.
	f1, f2, f3 := 0.2, 0.3, 0.5
	costM1 := f1*c1m + f2*c2m + f3*c3m
	costMNull := f1*c1 + f2*c2 + f3*c3

	// Local formula: f⊆(q1) = f1 + f3.
	fSub := f1 + f3
	costSub := fSub * (c1m - c1)

	// Both must agree that m1 is advantageous (negative difference).
	if (costM1-costMNull >= 0) != (costSub >= 0) {
		t.Fatalf("Theorem 3.1 sign mismatch: explicit %v, local %v", costM1-costMNull, costSub)
	}
	if costSub >= 0 {
		t.Fatalf("materializing a selective predicate should be beneficial (Cost⊆ = %v)", costSub)
	}
	// And the magnitudes should be close (P2 is approximate, not exact).
	diffExplicit := costM1 - costMNull
	if relErr := abs(diffExplicit-costSub) / abs(diffExplicit); relErr > 0.75 {
		t.Fatalf("Theorem 3.1 approximation poor: explicit %v vs local %v (rel err %.2f)",
			diffExplicit, costSub, relErr)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestLearnerSurvivalUpdates(t *testing.T) {
	l := NewLearner(DefaultLearnerConfig())
	s := selRC(10)
	before := l.SelectionSurvival(s)

	// The user repeatedly removes this predicate before GO.
	final := qgraph.New()
	final.AddRelation("R")
	for i := 0; i < 20; i++ {
		l.ObserveFormulation([]qgraph.Selection{s}, nil, final)
	}
	after := l.SelectionSurvival(s)
	if after >= before {
		t.Fatalf("survival should drop after churn: %v -> %v", before, after)
	}
	if after > 0.3 {
		t.Fatalf("survival %v still high after 20 negative observations", after)
	}

	// A different column keeps the (higher) global estimate.
	other := qgraph.Selection{Rel: "W", Col: "d", Op: tuple.CmpLT, Const: tuple.NewInt(5)}
	if l.SelectionSurvival(other) <= after {
		t.Fatal("per-column estimate leaked to other columns")
	}
}

func TestLearnerSubgraphProbabilities(t *testing.T) {
	l := NewLearner(DefaultLearnerConfig())
	g := qgraph.New()
	g.AddJoin(qgraph.NewJoin("R", "a", "S", "a"))
	g.AddSelection(selRC(10))
	p := l.SubgraphSurvival(g)
	if p <= 0 || p >= 1 {
		t.Fatalf("f⊆ = %v out of (0,1)", p)
	}
	// More parts → lower probability.
	g2 := g.Clone()
	g2.AddSelection(qgraph.Selection{Rel: "S", Col: "b", Op: tuple.CmpLT, Const: tuple.NewInt(9)})
	if l.SubgraphSurvival(g2) >= p {
		t.Fatal("adding parts should lower f⊆")
	}
	r := l.SubgraphRetention(g)
	if r <= 0 || r >= 1 {
		t.Fatalf("retention %v out of (0,1)", r)
	}
}

func TestLearnerRetention(t *testing.T) {
	l := NewLearner(DefaultLearnerConfig())
	g := qgraph.SelectionSubgraph(selRC(10))
	empty := qgraph.New()
	empty.AddRelation("R")
	base := l.SubgraphRetention(g)
	for i := 0; i < 20; i++ {
		l.ObserveTransition(g, empty) // selection never retained
	}
	if l.SubgraphRetention(g) >= base {
		t.Fatal("retention should drop")
	}
}

func TestLearnerCompletionProbability(t *testing.T) {
	l := NewLearner(DefaultLearnerConfig())
	// Longer manipulations are less likely to finish.
	pShort := l.CompletionProbability(2, 1)
	pLong := l.CompletionProbability(2, 60)
	if pShort <= pLong {
		t.Fatalf("completion probability not monotone: short=%v long=%v", pShort, pLong)
	}
	if pShort <= 0 || pShort > 1 || pLong < 0 || pLong > 1 {
		t.Fatalf("probabilities out of range: %v, %v", pShort, pLong)
	}
	if got := l.CompletionProbability(5, 0); got != 1 {
		t.Fatalf("zero-duration completion probability %v", got)
	}
	// Training on long observed formulations raises completion chances.
	for i := 0; i < 30; i++ {
		l.ObserveFormulationDuration(300)
	}
	if l.CompletionProbability(2, 60) <= pLong {
		t.Fatal("training on long think-times should raise completion probability")
	}
}

func TestEnumerateManipulations(t *testing.T) {
	partial := qgraph.New()
	partial.AddJoin(qgraph.NewJoin("R", "a", "S", "a"))
	partial.AddSelection(selRC(10))

	ms := EnumerateManipulations(partial, OpsMaterializeOnly(), false)
	if len(ms) != 2 { // one selection + one join subgraph
		t.Fatalf("enumerated %d manipulations, want 2", len(ms))
	}
	ms = EnumerateManipulations(partial, OpsMaterializeOnly(), true)
	if len(ms) != 1 {
		t.Fatalf("selections-only enumerated %d, want 1", len(ms))
	}
	ms = EnumerateManipulations(partial, OpSet{Materialize: true, Index: true, Histogram: true, Stage: true}, false)
	// 2 materializations + 1 index + 1 histogram + 2 stagings.
	if len(ms) != 6 {
		t.Fatalf("full ops enumerated %d, want 6", len(ms))
	}
}

func TestCostModelAblationOrdering(t *testing.T) {
	// Materialization should promise more benefit than histogram creation
	// for the same selective predicate — the Section 3.2 trade-off.
	e := newTestEngine(t, 30000)
	l := NewLearner(DefaultLearnerConfig())
	cm := &CostModel{Eng: e, Learner: l}

	sel := selRC(20)
	mat := Manipulation{Kind: ManipMaterialize, Graph: qgraph.SelectionSubgraph(sel)}
	hist := Manipulation{Kind: ManipHistogram, Graph: qgraph.SelectionSubgraph(sel), Rel: "R", Col: "c"}
	if err := cm.Score(&mat, "", 0); err != nil {
		t.Fatal(err)
	}
	if err := cm.Score(&hist, "", 0); err != nil {
		t.Fatal(err)
	}
	if mat.Benefit <= hist.Benefit {
		t.Fatalf("materialize benefit %v not above histogram benefit %v", mat.Benefit, hist.Benefit)
	}
	if mat.EstDuration <= 0 {
		t.Fatalf("estimated duration %v", mat.EstDuration)
	}
}

func TestCostModelLookaheadIncreasesBenefit(t *testing.T) {
	e := newTestEngine(t, 30000)
	l := NewLearner(DefaultLearnerConfig())
	sel := selRC(20)

	score := func(lookahead int) sim.Duration {
		cm := &CostModel{Eng: e, Learner: l, Lookahead: lookahead}
		m := Manipulation{Kind: ManipMaterialize, Graph: qgraph.SelectionSubgraph(sel)}
		if err := cm.Score(&m, "", 0); err != nil {
			t.Fatal(err)
		}
		return m.Benefit
	}
	if score(3) <= score(0) {
		t.Fatal("lookahead should increase expected benefit via reuse")
	}
}

// TestCompletionRiskLowersBenefit holds Score to multiplying the benefit by
// the probability that the manipulation completes before GO: nothing else in
// Score depends on how long the formulation has run, so two scores at
// different elapsed times must differ by exactly the ratio of their
// completion probabilities. Both probabilities lie below 1, so the risk
// lowers both benefits.
func TestCompletionRiskLowersBenefit(t *testing.T) {
	e := newTestEngine(t, 30000)
	l := NewLearner(DefaultLearnerConfig())
	cm := &CostModel{Eng: e, Learner: l}
	score := func(elapsed float64) (benefit, p float64) {
		m := Manipulation{Kind: ManipMaterialize, Graph: qgraph.SelectionSubgraph(selRC(20))}
		if err := cm.Score(&m, "", elapsed); err != nil {
			t.Fatal(err)
		}
		return float64(m.Benefit), l.CompletionProbability(elapsed, m.EstDuration.Seconds())
	}
	// 5 s into a formulation a one-second build is likelier to be cut off
	// by GO (p ≈ 0.93) than 600 s into one (p ≈ 0.996).
	bEarly, pEarly := score(5)
	bLate, pLate := score(600)
	if bEarly <= 0 || bLate <= 0 {
		t.Fatalf("benefits %v, %v: the manipulation must pass every guard", bEarly, bLate)
	}
	if pLate-pEarly < 0.05 || pLate >= 1 {
		t.Fatalf("completion probabilities %v, %v must differ and lie below 1", pEarly, pLate)
	}
	if got, want := bEarly/bLate, pEarly/pLate; math.Abs(got-want) > 1e-6*want {
		t.Fatalf("benefit ratio %v, completion-probability ratio %v: Score must scale the benefit by the completion probability", got, want)
	}
}

func TestManipulationKeysAndStrings(t *testing.T) {
	g := qgraph.SelectionSubgraph(selRC(1))
	ms := []Manipulation{
		{Kind: ManipMaterialize, Graph: g},
		{Kind: ManipIndex, Graph: g, Rel: "R", Col: "c"},
		{Kind: ManipHistogram, Graph: g, Rel: "R", Col: "c"},
		{Kind: ManipStage, Graph: g, Rel: "R"},
		{Kind: ManipNull},
	}
	keys := map[string]bool{}
	for _, m := range ms {
		if m.String() == "" || m.Key() == "" {
			t.Fatalf("empty key/string for %v", m.Kind)
		}
		if keys[m.Key()] {
			t.Fatalf("duplicate key %q", m.Key())
		}
		keys[m.Key()] = true
	}
}

func TestSuspendWhenBusy(t *testing.T) {
	e := newTestEngine(t, 20000)
	cfg := DefaultConfig()
	cfg.SuspendWhenBusy = 2
	cfg.Ledger = NewLedger(e.Metrics(), false)
	sp := newSpec(e, cfg)

	// Another session on the same ledger has two jobs in flight: the server
	// is busy and speculation suspends.
	other := cfg.Ledger.NewHolder()
	j1, j2 := AssetKey{Scope: other, Manip: "j1"}, AssetKey{Scope: other, Manip: "j2"}
	cfg.Ledger.Claim(j1, other, 0, 1)
	cfg.Ledger.Claim(j2, other, 0, 1)
	out, err := sp.OnEvent(evAddSel(selRC(18)), 0)
	if err != nil {
		t.Fatal(err)
	}
	if one(out.Issued) != nil {
		t.Fatal("issued while server busy")
	}
	if sp.Stats().Suspended == 0 {
		t.Fatal("suspension not counted")
	}

	cfg.Ledger.End(j1, other) // load fell below the threshold: speculation resumes
	cfg.Ledger.End(j2, other)
	out, err = sp.OnEvent(evAddSel(qgraph.Selection{
		Rel: "W", Col: "d", Op: tuple.CmpLT, Const: tuple.NewInt(100),
	}), sim.FromSeconds(1))
	if err != nil {
		t.Fatal(err)
	}
	if one(out.Issued) == nil {
		t.Fatal("did not resume after load dropped")
	}
}

// TestDeviceRule pins how a GO meets the device (DESIGN.md §6): an executed
// GO beside another session's in-flight job is stretched by its own page-I/O
// time times the share of its window [now, now+d) that job keeps the device
// busy — the job's page-I/O time spread evenly over its span. The session's
// own jobs, a build, a GO that reads no page and a served GO are never
// stretched.
func TestDeviceRule(t *testing.T) {
	e := newTestEngine(t, 20000)
	cfg := DefaultConfig()
	cfg.Ledger = NewLedger(e.Metrics(), false)
	sp := newSpec(e, cfg)
	other := cfg.Ledger.NewHolder()
	// load puts holder's job name in flight over [from, to), io of it on the
	// device; the returned func ends it.
	load := func(l *Ledger, holder int, name string, from, to sim.Time, io sim.Duration) func() {
		key := AssetKey{Scope: holder, Manip: name}
		l.Claim(key, holder, 0, 1)
		l.Run(key, holder, from, to, io)
		return func() { l.End(key, holder) }
	}
	const forever = sim.Time(1 << 50)

	build := func(ev trace.Event, at sim.Time) sim.Duration {
		t.Helper()
		if err := e.ColdStart(); err != nil {
			t.Fatal(err)
		}
		out, err := sp.OnEvent(ev, at)
		if err != nil {
			t.Fatal(err)
		}
		job := one(out.Issued)
		if job == nil || job.Manip.Kind != ManipMaterialize {
			t.Fatalf("issued %v, want one materialization", out.Issued)
		}
		sp.CancelOutstanding()
		return job.CompletesAt.Sub(job.IssuedAt)
	}
	idleBuild := build(evAddSel(selRC(18)), 0)
	end := load(cfg.Ledger, other, "busy", 0, forever, sim.Duration(forever))
	if got := build(trace.Event{Kind: trace.EvSetProjections}, sim.FromSeconds(1)); got != idleBuild {
		t.Fatalf("build beside a busy device took %v, want %v as on an idle one", got, idleBuild)
	}
	end()

	sp.cfg.MinBenefit = math.MaxInt64 // nothing issued: the GO alone runs
	run := func(at sim.Time, cold bool) *engine.Result {
		t.Helper()
		if cold {
			if err := e.ColdStart(); err != nil {
				t.Fatal(err)
			}
		}
		res, _, err := sp.OnGo(at)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	at := sim.FromSeconds(10)
	idle := run(at, true)
	d, io := idle.Duration, sp.ioTime(idle)
	if io == 0 || io == d {
		t.Fatalf("the GO must read pages and process tuples: duration %v, I/O %v", d, io)
	}
	// want is d + io × busy/d, busy the job's page-I/O time over its span
	// times its overlap with [at, at+d), in exact integers truncated as the
	// ledger truncates.
	want := func(from, to sim.Time, jobIO sim.Duration) sim.Duration {
		overlap := min(to, at.Add(d)).Sub(max(from, at))
		if overlap <= 0 {
			return d
		}
		b := new(big.Int).Mul(big.NewInt(int64(overlap)), big.NewInt(int64(jobIO)))
		b.Quo(b, big.NewInt(int64(to.Sub(from))))
		b.Mul(b, big.NewInt(int64(io)))
		return d + sim.Duration(b.Quo(b, big.NewInt(int64(d))).Int64())
	}
	third := d / 3
	for _, c := range []struct {
		name     string
		from, to sim.Time
		jobIO    sim.Duration
	}{
		{"device busy throughout", 0, forever, sim.Duration(forever)},
		{"job spans the GO, device busy two fifths", at - 7, at.Add(4 * d), 2 * (4*d + 7) / 5},
		{"job ends a third into the GO", at - sim.Time(third), at.Add(third), third},
		{"job starts a third into the GO", at.Add(third), at.Add(5 * d), d},
		{"job ended at the GO", 0, at, sim.Duration(at)},
		{"job starts as the GO ends", at.Add(d), forever, sim.Duration(forever - at.Add(d))},
	} {
		end := load(cfg.Ledger, other, "busy", c.from, c.to, c.jobIO)
		if got, want := run(at, true).Duration, want(c.from, c.to, c.jobIO); got != want {
			t.Errorf("%s: GO took %v, want %v (idle %v, I/O %v)", c.name, got, want, d, io)
		}
		end()
	}
	if got := want(0, forever, sim.Duration(forever)); got != d+io {
		t.Fatalf("a fully busy device stretches the GO to %v, want %v + %v", got, d, io)
	}

	// Three jobs of two other sessions: their device time sums, whatever
	// order the ledger's map yields them in, and reading it allocates nothing.
	third2 := cfg.Ledger.NewHolder()
	ends := []func(){
		load(cfg.Ledger, other, "a", at-3, at.Add(d), d/7),
		load(cfg.Ledger, other, "b", at.Add(d/2), at.Add(3*d), d/3),
		load(cfg.Ledger, third2, "c", 0, at.Add(d/5), sim.Duration(at)/11),
	}
	first := run(at, true).Duration
	for range 20 {
		if got := run(at, true).Duration; got != first {
			t.Fatalf("the same load stretched the GO to %v, then %v", first, got)
		}
	}
	if n := testing.AllocsPerRun(50, func() { sp.deviceWait(at, idle) }); n != 0 {
		t.Fatalf("deviceWait allocates %v times", n)
	}
	for _, end := range ends {
		end()
	}

	// The session's own job in flight: no stretch.
	end = load(cfg.Ledger, sp.holder, "own", 0, forever, sim.Duration(forever))
	if got := run(at, true).Duration; got != d {
		t.Fatalf("the session's own job stretched its GO to %v, want %v", got, d)
	}
	end()

	// A GO on a warm pool reads no page: nothing to wait for.
	warm := run(at, false)
	end = load(cfg.Ledger, other, "busy", 0, forever, sim.Duration(forever))
	if got := run(at, false); got.Work != warm.Work || got.Work.PageReads+got.Work.PageWrites != 0 || got.Duration != warm.Duration {
		t.Fatalf("a GO reading no page: work %+v duration %v, want %+v %v", got.Work, got.Duration, warm.Work, warm.Duration)
	}
	end()

	// A served GO runs no statement, so it takes no time beside a busy device.
	e2 := newTestEngine(t, 20000)
	sp2, now := newServedGoSpec(t, e2)
	l2 := sp2.cfg.Ledger
	end = load(l2, l2.NewHolder(), "busy", 0, forever, sim.Duration(forever))
	res, _, err := sp2.OnGo(now.Add(sim.DurationFromSeconds(1)))
	if err != nil {
		t.Fatal(err)
	}
	if sp2.Stats().PredictedGos != 1 || res.Duration != 0 {
		t.Fatalf("served GO: %d served, duration %v", sp2.Stats().PredictedGos, res.Duration)
	}
	end()
}

func TestSpeculatorIndexFamily(t *testing.T) {
	e := newTestEngine(t, 20000)
	if err := e.ColdStart(); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Ops = OpSet{Index: true}
	cfg.MinBenefit = 0
	sp := newSpec(e, cfg)

	// W.d is nearly unique: indexing it benefits an equality predicate.
	sel := qgraph.Selection{Rel: "W", Col: "d", Op: tuple.CmpEQ, Const: tuple.NewInt(777)}
	out, err := sp.OnEvent(evAddSel(sel), 0)
	if err != nil {
		t.Fatal(err)
	}
	if one(out.Issued) == nil || one(out.Issued).Manip.Kind != ManipIndex {
		t.Fatalf("expected index creation, got %+v", one(out.Issued))
	}
	wt, _ := e.Catalog.Table("W")
	if wt.Index("d") != nil {
		t.Fatal("index visible before completion")
	}
	if _, err := sp.Complete(one(out.Issued), one(out.Issued).CompletesAt); err != nil {
		t.Fatal(err)
	}
	if wt.Index("d") == nil {
		t.Fatal("index not installed on completion")
	}
	res, _, err := sp.OnGo(one(out.Issued).CompletesAt.Add(sim.DurationFromSeconds(1)))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.Explain(res.Plan), "IndexScan") {
		t.Fatalf("final query ignored the speculative index:\n%s", plan.Explain(res.Plan))
	}
}

func TestSpeculatorIndexCancelDropsPages(t *testing.T) {
	e := newTestEngine(t, 20000)
	if err := e.ColdStart(); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Ops = OpSet{Index: true}
	cfg.MinBenefit = 0
	sp := newSpec(e, cfg)
	sel := qgraph.Selection{Rel: "W", Col: "d", Op: tuple.CmpEQ, Const: tuple.NewInt(777)}
	out, err := sp.OnEvent(evAddSel(sel), 0)
	if err != nil {
		t.Fatal(err)
	}
	if one(out.Issued) == nil {
		t.Fatal("no index job issued")
	}
	pagesBefore := e.Disk.Allocated()
	out2, err := sp.OnEvent(evRemoveSel(sel), sim.FromSeconds(0.1))
	if err != nil {
		t.Fatal(err)
	}
	if one(out2.Canceled) == nil {
		t.Fatal("index job not canceled on invalidation")
	}
	if e.Disk.Allocated() >= pagesBefore {
		t.Fatalf("canceled index did not free pages: %d -> %d", pagesBefore, e.Disk.Allocated())
	}
}

func TestSpeculatorHistogramFamily(t *testing.T) {
	e := newTestEngine(t, 20000)
	cfg := DefaultConfig()
	cfg.Ops = OpSet{Histogram: true}
	cfg.MinBenefit = 0
	sp := newSpec(e, cfg)

	sel := qgraph.Selection{Rel: "W", Col: "d", Op: tuple.CmpLT, Const: tuple.NewInt(500)}
	out, err := sp.OnEvent(evAddSel(sel), 0)
	if err != nil {
		t.Fatal(err)
	}
	if one(out.Issued) == nil || one(out.Issued).Manip.Kind != ManipHistogram {
		t.Fatalf("expected histogram creation, got %+v", one(out.Issued))
	}
	wt, _ := e.Catalog.Table("W")
	if wt.ColumnStats("d").Hist() != nil {
		t.Fatal("histogram visible before completion")
	}
	if _, err := sp.Complete(one(out.Issued), one(out.Issued).CompletesAt); err != nil {
		t.Fatal(err)
	}
	if wt.ColumnStats("d").Hist() == nil {
		t.Fatal("histogram not installed on completion")
	}
	// Re-enumeration must not propose the same histogram again.
	out2, err := sp.OnEvent(evAddSel(qgraph.Selection{
		Rel: "W", Col: "d", Op: tuple.CmpGT, Const: tuple.NewInt(100),
	}), sim.FromSeconds(1))
	if err != nil {
		t.Fatal(err)
	}
	if one(out2.Issued) != nil && one(out2.Issued).Manip.Kind == ManipHistogram && one(out2.Issued).Manip.Col == "d" {
		t.Fatal("duplicate histogram issued")
	}
}

func TestSpeculatorStageFamily(t *testing.T) {
	e := newTestEngine(t, 20000)
	if err := e.ColdStart(); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Ops = OpSet{Stage: true}
	cfg.MinBenefit = 0
	sp := newSpec(e, cfg)

	out, err := sp.OnEvent(evAddSel(selRC(18)), 0)
	if err != nil {
		t.Fatal(err)
	}
	if one(out.Issued) == nil || one(out.Issued).Manip.Kind != ManipStage {
		t.Fatalf("expected staging, got %+v", one(out.Issued))
	}
	if e.Pool.StagedCount() == 0 {
		t.Fatal("no pages staged")
	}
	if _, err := sp.Complete(one(out.Issued), one(out.Issued).CompletesAt); err != nil {
		t.Fatal(err)
	}
	// GC on relation removal unstages.
	if _, err := sp.OnEvent(evRemoveSel(selRC(18)), sim.FromSeconds(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := sp.OnEvent(trace.Event{Kind: trace.EvRemoveRelation, Rel: "R"}, sim.FromSeconds(2)); err != nil {
		t.Fatal(err)
	}
	if e.Pool.StagedCount() != 0 {
		t.Fatalf("%d pages still staged after relation left the canvas", e.Pool.StagedCount())
	}
}

// Regression: Clear abandons the whole exploration task, so it must reset the
// formulation-tracking state (seen parts and the formulation timer), not just
// the partial query. Otherwise the Learner trains on parts of the abandoned
// task and on a formulation duration stretched back to before the Clear.
func TestClearResetsFormulationTracking(t *testing.T) {
	e := newTestEngine(t, 2000)
	sp := newSpec(e, DefaultConfig())

	abandoned := selRC(18)
	if _, err := sp.OnEvent(evAddSel(abandoned), sim.FromSeconds(0)); err != nil {
		t.Fatal(err)
	}
	if len(sp.seenSels) != 1 || !sp.formStarted {
		t.Fatalf("formulation not tracked: seen=%d started=%v", len(sp.seenSels), sp.formStarted)
	}

	if _, err := sp.OnEvent(trace.Event{Kind: trace.EvClear}, sim.FromSeconds(5)); err != nil {
		t.Fatal(err)
	}
	if len(sp.seenSels) != 0 || len(sp.seenJoins) != 0 {
		t.Fatalf("Clear left seen parts behind: %d sels, %d joins", len(sp.seenSels), len(sp.seenJoins))
	}
	if sp.formStarted || sp.formStart != 0 {
		t.Fatalf("Clear left the formulation timer running: started=%v at %v", sp.formStarted, sp.formStart)
	}

	// Fresh task: one selection on a different column, then GO.
	kept := qgraph.Selection{Rel: "W", Col: "d", Op: tuple.CmpLT, Const: tuple.NewInt(100)}
	t2, t3 := sim.FromSeconds(100), sim.FromSeconds(130)
	if _, err := sp.OnEvent(evAddSel(kept), t2); err != nil {
		t.Fatal(err)
	}
	if sp.formStart != t2 {
		t.Fatalf("new formulation starts at %v, want %v", sp.formStart, t2)
	}
	if _, _, err := sp.OnGo(t3); err != nil {
		t.Fatal(err)
	}

	// The Learner must have observed only the new task's parts...
	l := sp.learner
	if _, ok := l.selSurvivalByCol["R.c"]; ok {
		t.Fatal("Learner observed a selection from the abandoned (cleared) task")
	}
	if _, ok := l.selSurvivalByCol["W.d"]; !ok {
		t.Fatal("Learner missed the fresh task's selection")
	}
	// ...and a formulation duration measured from the fresh task's first edit
	// (30 s), not from before the Clear (130 s).
	if l.thinkN != 1 {
		t.Fatalf("thinkN = %v, want 1", l.thinkN)
	}
	if want := math.Log(30); math.Abs(l.thinkLogMean-want) > 1e-9 {
		t.Fatalf("formulation duration logged as %v s, want 30 s",
			math.Exp(l.thinkLogMean))
	}
}
