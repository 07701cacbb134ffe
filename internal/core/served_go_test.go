package core

import (
	"testing"

	"specdb/internal/engine"
	"specdb/internal/plan"
	"specdb/internal/qgraph"
	"specdb/internal/sim"
	"specdb/internal/tuple"
)

// predictOnly returns a speculator that predicts the one-selection query
// R.c > 18 as the final and issues nothing else, over an answer cache of
// capacityPages (0: the default), and the predicted job its first edit issued
// at second 1.
func predictOnly(t testing.TB, e *engine.Engine, capacityPages int) (*Speculator, *Job) {
	t.Helper()
	sp, issued := predictIssue(t, e, capacityPages)
	job := one(issued)
	if job == nil || job.Manip.Kind != ManipPredictFinal {
		t.Fatalf("no predicted final issued: %v", issued)
	}
	return sp, job
}

// predictIssue is predictOnly's speculator and every job its first edit
// issued, whatever they are.
func predictIssue(t testing.TB, e *engine.Engine, capacityPages int) (*Speculator, []*Job) {
	t.Helper()
	final := qgraph.SelectionSubgraph(selRC(18))
	cfg := DefaultConfig()
	cfg.Ops, cfg.MinBenefit = OpSet{}, 0
	cfg.Predictor = NewPredictor(PredictorConfig{})
	cfg.Predictor.ObserveFinal([]string{final.Key()}, "", final, nil)
	cfg.Answers = NewAnswerCache(e.Metrics(), capacityPages)
	sp := newSpec(e, cfg)
	out, err := sp.OnEvent(evAddSel(selRC(18)), sim.FromSeconds(1))
	if err != nil {
		t.Fatal(err)
	}
	return sp, out.Issued
}

// newServedGoSpec is predictOnly on the default cache, with the prediction
// already completed: the next GO on the returned canvas is served.
func newServedGoSpec(t testing.TB, e *engine.Engine) (*Speculator, sim.Time) {
	t.Helper()
	sp, job := predictOnly(t, e, 0)
	if err := sp.Advance(job.CompletesAt); err != nil {
		t.Fatal(err)
	}
	if !sp.predictedReady[job.formKey] {
		t.Fatal("completed prediction is not marked ready")
	}
	return sp, job.CompletesAt
}

// TestServedGoVersionValidation is the soundness of instant GO seen from
// outside (DESIGN.md §14): a ready prediction is served without a statement;
// a write to a relation the form does not read leaves it served; a write to
// one it reads makes the GO execute and see the new row, invalidates the entry
// once, and frees the form to be predicted — and served — again.
func TestServedGoVersionValidation(t *testing.T) {
	const n = 20000
	e := newTestEngine(t, n)
	sp, now := newServedGoSpec(t, e)
	counter := func(name string) int64 { return e.Metrics().Snapshot().Counters[name] }
	matching := int64(0)
	for i := 0; i < n; i++ {
		if i%23 > 18 {
			matching++
		}
	}
	// goAt presses GO one second later and reports whether a statement ran.
	goAt := func() (*engine.Result, EventOutcome, bool) {
		t.Helper()
		now = now.Add(sim.DurationFromSeconds(1))
		before := counter("engine.statements")
		res, out, err := sp.OnGo(now)
		if err != nil {
			t.Fatal(err)
		}
		return res, out, counter("engine.statements") != before
	}

	res, _, executed := goAt()
	if executed || res.Plan != nil || res.Work != (sim.Work{}) || res.Duration != 0 {
		t.Fatalf("served GO did engine work: executed %v, plan %v, work %+v, duration %v", executed, res.Plan, res.Work, res.Duration)
	}
	if res.RowCount != matching || int64(len(res.Rows)) != matching || res.Schema == nil {
		t.Fatalf("served GO returned %d rows (RowCount %d, schema %v), want %d", len(res.Rows), res.RowCount, res.Schema, matching)
	}
	if st := sp.Stats(); st.PredictedGos != 1 || st.Hits != 1 || st.Misses != 0 || st.InstantSaved <= 0 {
		t.Fatalf("served GO accounting: %+v", st)
	}

	// A write the form does not read: still served.
	if err := e.InsertRows("W", []tuple.Row{{tuple.NewInt(1), tuple.NewInt(1)}}); err != nil {
		t.Fatal(err)
	}
	if _, _, executed := goAt(); executed || sp.Stats().PredictedGos != 2 {
		t.Fatalf("write to an unread relation stopped the serve: executed %v, %+v", executed, sp.Stats())
	}

	// A write the form reads: the GO executes and sees it.
	marker := tuple.Row{tuple.NewInt(777777), tuple.NewInt(22)}
	if err := e.InsertRows("R", []tuple.Row{marker}); err != nil {
		t.Fatal(err)
	}
	res, out, executed := goAt()
	if !executed || res.Plan == nil || sp.Stats().PredictedGos != 2 {
		t.Fatalf("GO after a write to R was served: executed %v, %+v", executed, sp.Stats())
	}
	if res.RowCount != matching+1 || !hasRow(res.Rows, marker) {
		t.Fatalf("GO after the write: %d rows, marker present %v; want %d rows with the marker", res.RowCount, hasRow(res.Rows, marker), matching+1)
	}
	if got := counter("answers.invalidated"); got != 1 {
		t.Fatalf("answers.invalidated = %d, want 1", got)
	}
	if len(sp.predictedReady) != 0 {
		t.Fatalf("ready mark outlived its entry: %v", sp.predictedReady)
	}

	// The mark is gone, so the same GO re-predicted the form; once that
	// completes the form is served again, new row included.
	job := one(out.Issued)
	if job == nil || job.Manip.Kind != ManipPredictFinal {
		t.Fatalf("form not predicted again after the invalidation: %v", out.Issued)
	}
	if err := sp.Advance(job.CompletesAt); err != nil {
		t.Fatal(err)
	}
	now = job.CompletesAt
	res, _, executed = goAt()
	if executed || sp.Stats().PredictedGos != 3 || res.RowCount != matching+1 || !hasRow(res.Rows, marker) {
		t.Fatalf("re-predicted form not served fresh: executed %v, %d rows, %+v", executed, res.RowCount, sp.Stats())
	}

	if err := sp.Shutdown(); err != nil {
		t.Fatal(err)
	}
	for fk, entry := range sp.cfg.Answers.entries {
		if entry.refs != 0 {
			t.Errorf("entry %s still has %d references after Shutdown", fk, entry.refs)
		}
	}
	if st := sp.Stats(); st.PredictedIssued != st.PredictedCompleted+st.PredictedCanceled || st.Hits+st.Misses != 4 {
		t.Fatalf("final accounting: %+v", st)
	}
}

// TestTwoPublishersBothHoldTheAnswer: two sessions execute the same predicted
// final before either completes, so both publish it. Each holds its own
// reference on the one cache entry: the second publisher shutting down must
// not unpin the answer under the first, which still counts on serving it.
func TestTwoPublishersBothHoldTheAnswer(t *testing.T) {
	e := newTestEngine(t, 20000)
	final := qgraph.SelectionSubgraph(selRC(18))
	cfg := DefaultConfig()
	cfg.Ops, cfg.MinBenefit = OpSet{}, 0
	cfg.Predictor = NewPredictor(PredictorConfig{})
	cfg.Predictor.ObserveFinal([]string{final.Key()}, "", final, nil)
	cfg.Answers = NewAnswerCache(e.Metrics(), 0)
	var sps [2]*Speculator
	var jobs [2]*Job
	for i, prefix := range []string{"first", "second"} {
		cfg.NamePrefix = prefix
		sps[i] = newSpec(e, cfg)
		out, err := sps[i].OnEvent(evAddSel(selRC(18)), sim.FromSeconds(1))
		if err != nil {
			t.Fatal(err)
		}
		if jobs[i] = one(out.Issued); jobs[i] == nil || jobs[i].fromCache {
			t.Fatalf("%s session did not execute the predicted final itself: %+v", prefix, jobs[i])
		}
	}
	for i, sp := range sps {
		if err := sp.Advance(jobs[i].CompletesAt); err != nil {
			t.Fatal(err)
		}
	}
	entry := cfg.Answers.entries[jobs[0].formKey]
	if entry == nil {
		t.Fatal("the predicted final was not published")
	}
	if entry.refs != 2 {
		t.Fatalf("two publishers hold %d references between them", entry.refs)
	}
	if err := sps[1].Shutdown(); err != nil {
		t.Fatal(err)
	}
	if entry.refs != 1 {
		t.Fatalf("%d references after the second publisher closed: the first still holds the answer", entry.refs)
	}
	if _, _, err := sps[0].OnGo(jobs[0].CompletesAt.Add(sim.DurationFromSeconds(1))); err != nil {
		t.Fatal(err)
	}
	if st := sps[0].Stats(); st.PredictedGos != 1 {
		t.Fatalf("the first publisher's GO was not served: %+v", st)
	}
	if err := sps[0].Shutdown(); err != nil {
		t.Fatal(err)
	}
	if entry.refs != 0 {
		t.Fatalf("%d references after both closed", entry.refs)
	}
}

// TestAnswerRowsSurviveLaterStatements holds the line recycling must not cross
// (DESIGN.md §15, "Slabs"): a join gives its build memory back to the slabs
// at Close, but an answer is memory that left the executor. RunQuery's rows
// and the rows a served GO hands over from the AnswerCache are kept while 60
// more join statements run — among them build sides as wide as the first
// answer, which cut their rows from chunks of the same size classes — and must
// still equal the copies taken when they arrived.
func TestAnswerRowsSurviveLaterStatements(t *testing.T) {
	e := newTestEngine(t, 1000)
	run := func(g *qgraph.Graph) *engine.Result {
		t.Helper()
		q, err := plan.BindGraphProjections(e.Catalog, g, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.RunQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	copyRows := func(rows []tuple.Row) []tuple.Row {
		out := make([]tuple.Row, len(rows))
		for i, r := range rows {
			out[i] = append(tuple.Row(nil), r...)
		}
		return out
	}
	rs := qgraph.NewJoin("R", "a", "S", "a")
	sw := qgraph.NewJoin("S", "b", "W", "b")
	sel := func(rel, col string, op tuple.CmpOp, c int) qgraph.Selection {
		return qgraph.Selection{Rel: rel, Col: col, Op: op, Const: tuple.NewInt(int64(c))}
	}

	g := qgraph.New()
	g.AddJoin(rs)
	g.AddSelection(selRC(20))
	answer := run(g).Rows
	sp, now := newServedGoSpec(t, e)
	served, _, err := sp.OnGo(now.Add(sim.DurationFromSeconds(1)))
	if err != nil {
		t.Fatal(err)
	}
	if sp.Stats().PredictedGos != 1 || len(served.Rows) == 0 || len(answer) == 0 {
		t.Fatalf("setup: %d answer rows, %d served rows, %+v", len(answer), len(served.Rows), sp.Stats())
	}
	keptAnswer, keptServed := copyRows(answer), copyRows(served.Rows)

	wideBuilds := 0
	for i := 0; i < 60; i++ {
		g := qgraph.New()
		switch i % 3 {
		case 0:
			g.AddJoin(rs)
			g.AddSelection(selRC(int64(i % 23)))
		case 1:
			g.AddJoin(rs)
			g.AddJoin(sw)
			// R.c > 21 keeps 43 rows of R, so R ⋈ S (860 rows) is
			// smaller than W and becomes the top join's build side.
			g.AddSelection(selRC(21))
			g.AddSelection(sel("W", "d", tuple.CmpGE, i))
		case 2:
			g.AddJoin(sw)
			g.AddSelection(sel("S", "b", tuple.CmpLT, i%31))
		}
		plan.Walk(run(g).Plan, func(n plan.Node) {
			if j, ok := n.(*plan.JoinNode); ok && j.Method == plan.JoinHash && j.Left.Schema().Len() == len(answer[0]) {
				wideBuilds++
			}
		})
	}
	if wideBuilds == 0 {
		t.Fatalf("no later hash join built a side %d values wide", len(answer[0]))
	}
	for name, pair := range map[string][2][]tuple.Row{"RunQuery": {answer, keptAnswer}, "served GO": {served.Rows, keptServed}} {
		for i, r := range pair[0] {
			if !sameRow(r, pair[1][i]) {
				t.Fatalf("%s answer row %d changed under later statements: %v, was %v", name, i, r, pair[1][i])
			}
		}
	}
	if err := sp.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// sameRow compares rows value by value, kind included.
func sameRow(a, b tuple.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind() != b[i].Kind() || !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

func hasRow(rows []tuple.Row, want tuple.Row) bool {
	for _, r := range rows {
		if len(r) == len(want) && r[0].Equal(want[0]) && r[1].Equal(want[1]) {
			return true
		}
	}
	return false
}
