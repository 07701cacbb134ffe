package core

import (
	"cmp"
	"fmt"
	"slices"

	"specdb/internal/engine"
	"specdb/internal/obs"
	"specdb/internal/plan"
	"specdb/internal/sim"
)

// fillSlots runs admission walks until the outstanding cap is reached or a
// walk starts nothing. With Workers=1 it is exactly one walk on an empty
// slot — the paper's single-manipulation convention.
func (sp *Speculator) fillSlots(now sim.Time) ([]*Job, error) {
	var issued []*Job
	for len(sp.outstanding) < sp.cfg.Workers {
		job, err := sp.issueNext(now)
		if err != nil {
			return issued, err
		}
		if job == nil {
			break
		}
		issued = append(issued, job)
	}
	return issued, nil
}

// issueNext is one admission walk (DESIGN.md §16): the session-level gates,
// then the predicted finals in confidence order, then the fragment
// manipulations in descending benefit order, each candidate through tryIssue,
// until one starts or the walk must stop.
func (sp *Speculator) issueNext(now sim.Time) (*Job, error) {
	switch {
	case sp.cfg.SuspendWhenBusy > 0 && sp.cfg.Ledger.InFlight(AssetKey{}) >= sp.cfg.SuspendWhenBusy:
		count(sp, &sp.stats.Suspended, 1)
		return nil, nil
	case now < sp.retryAt:
		// Post-failure backoff (retryAt stays 0 on the fault-free path).
		return nil, nil
	case !sp.cfg.Governor.AllowIssue(sp.cfg.Ledger, now, len(sp.outstanding) == 0):
		// Under pressure the governor refuses extra jobs (pressured band) or
		// every issue (critical/degraded).
		count(sp, &sp.stats.GovernorDeferred, 1)
		return nil, nil
	}
	// Predicted finals first (DESIGN.md §14): a confident whole-query
	// prediction dominates any sub-query manipulation — it answers GO outright.
	job, stop, err := sp.walkPredicted(now)
	if job != nil || stop || err != nil {
		return job, err
	}
	return sp.walkFragments(now)
}

// walkPredicted walks the Predictor's top-k candidates for the current canvas
// state, confidence-descending, filtered to finals that still extend the
// partial query. Each is scored only when its turn comes.
func (sp *Speculator) walkPredicted(now sim.Time) (job *Job, stop bool, err error) {
	if sp.cfg.Predictor == nil || sp.canvas.Graph.IsEmpty() {
		return nil, false, nil
	}
	for _, c := range sp.cfg.Predictor.Predict(sp.canvas.Graph.Key(), sp.prevKey) {
		if !c.Graph.Contains(sp.canvas.Graph) {
			continue // the canvas already left this predicted final
		}
		// Canonicalize the projection list exactly as OnGo will, so the form
		// key the job publishes under is the one GO looks up.
		q, err := plan.BindGraphProjections(sp.eng.Catalog, c.Graph, c.Projs)
		if err != nil {
			continue
		}
		m := Manipulation{Kind: ManipPredictFinal, Graph: c.Graph, Projs: q.Projections}
		key := sp.cfg.Ledger.Key(sp.holder, &m)
		if sp.predictedReady[FormKey(m.Graph, m.Projs)] || sp.isKnown(&m, key) {
			continue
		}
		if err := sp.cm.ScorePredicted(&m, c.Confidence); err != nil {
			return nil, true, err
		}
		if !sp.cfg.Answers.Admits(m.EstPages) {
			// No cache entry could ever hold this answer, so no GO could ever
			// read it: its slot goes to the next candidate (DESIGN.md §14).
			sp.eng.Metrics().Counter("answers.refused").Inc()
			continue
		}
		if m.Benefit < sp.cfg.MinBenefit {
			continue
		}
		if job, stop := sp.tryIssue(&m, key, now); job != nil || stop {
			return job, stop, nil
		}
	}
	return nil, false, nil
}

// walkFragments enumerates and scores the manipulation space of the partial
// query and walks the candidates that clear the benefit threshold, best first
// (stable on ties, preserving enumeration order).
func (sp *Speculator) walkFragments(now sim.Time) (*Job, error) {
	elapsed := 0.0
	if sp.formStarted {
		elapsed = now.Sub(sp.formStart).Seconds()
	}
	// candidate is a scored manipulation with its ledger entry.
	type candidate struct {
		m   Manipulation
		key AssetKey
	}
	ms := EnumerateManipulations(sp.canvas.Graph, sp.cfg.Ops, sp.cfg.SelectionsOnly)
	worth := make([]candidate, 0, len(ms))
	for _, m := range ms {
		key := sp.cfg.Ledger.Key(sp.holder, &m)
		if sp.isKnown(&m, key) {
			continue
		}
		if err := sp.cm.Score(&m, m.graphKey(key.Manip), elapsed); err != nil {
			return nil, err
		}
		// Adopt ready shared builds BEFORE the benefit filter: another
		// session's registered view already rewrites this session's plans,
		// so the candidate scores ~zero precisely because the work is done.
		// Attaching refcounts the freeload — the build cannot then be dropped
		// out from under this session.
		if sp.adoptReady(&m, key) || m.Benefit < sp.cfg.MinBenefit {
			continue
		}
		worth = append(worth, candidate{m, key})
	}
	slices.SortStableFunc(worth, func(a, b candidate) int { return cmp.Compare(b.m.Benefit, a.m.Benefit) })
	for i := range worth {
		if job, stop := sp.tryIssue(&worth[i].m, worth[i].key, now); job != nil || stop {
			return job, nil
		}
	}
	return nil, nil
}

// refusal is why admit turned a candidate down.
type refusal uint8

const (
	admitted refusal = iota
	// refusedBudget and refusedWorkerGate defer this candidate only: the walk
	// goes on to the next one, which may be smaller.
	refusedBudget
	refusedWorkerGate
	// refusedBreaker ends the walk: nothing may be issued.
	refusedBreaker
)

// deferred is the Stats field counting a walk-on refusal.
func (s *Stats) deferred(r refusal) *int {
	return [...]*int{refusedBudget: &s.BudgetDeferred, refusedWorkerGate: &s.Deferred}[r]
}

// admit runs the per-candidate gates on a scored manipulation whose ledger
// entry is key, claimed already: the session's ledger pages count it.
func (sp *Speculator) admit(m *Manipulation, key AssetKey, now sim.Time) refusal {
	switch {
	case sp.cfg.BudgetPages > 0 && sp.cfg.Ledger.Pages(sp.holder) > sp.cfg.BudgetPages:
		return refusedBudget
	case len(sp.outstanding) > 0 && !sp.admitExtra(key, m.EstPages):
		// Only extra jobs, beyond this speculator's first outstanding
		// manipulation, pass the worker gate.
		return refusedWorkerGate
	case !sp.breaker.allow(now):
		// Consulted last, once a candidate is actually worth issuing, so an
		// admitted half-open probe always corresponds to a real job (a probe
		// consumed with nothing to issue would wedge the breaker half-open
		// forever).
		return refusedBreaker
	}
	return admitted
}

// admitExtra is the worker gate an extra job, beyond this speculator's first
// outstanding one, must pass to run as the candidate entered in the ledger
// under key with retained footprint estPages. Fewer than Config.Workers other
// jobs may be in flight across the ledger's sessions — a job holds its slot
// from issue to its terminal transition, and a first job is never asked (the
// paper's one-manipulation-per-user convention of §3.1), so lone speculators
// can transiently overcommit the cap but are never throttled. The footprint
// must fit in the pool's current headroom minus a quarter of its capacity,
// reserved for the foreground working set. The cost model never prices real
// work below MinEstPages, so a missing estimate (estPages <= 0) means
// "unscored", not "free", and is floored at half that reserve.
func (sp *Speculator) admitExtra(key AssetKey, estPages int) bool {
	reserve := sp.eng.Pool.Capacity() / 4
	if estPages <= 0 {
		estPages = max(MinEstPages, reserve/2)
	}
	if sp.cfg.Ledger.InFlight(key) >= sp.cfg.Workers || estPages > sp.eng.Pool.Headroom()-reserve {
		sp.gateDeferred.Inc()
		return false
	}
	sp.gateAdmitted.Inc()
	return true
}

// tryIssue takes one scored candidate, whose ledger entry is key, through
// claim, admit, execute and start. It returns the started job; or nil, with
// stop set when the walk must end — the breaker refused, or the execution
// failed and the speculator now backs off.
func (sp *Speculator) tryIssue(m *Manipulation, key AssetKey, now sim.Time) (job *Job, stop bool) {
	// A shared build that became ready since the scoring pass (a concurrent
	// session finished it) is adopted instead of built; one another session is
	// still building is skipped, and adopted once ready.
	if sp.adoptReady(m, key) || !sp.cfg.Ledger.Claim(key, sp.holder, m.Benefit, m.EstPages) {
		return nil, false
	}
	if r := sp.admit(m, key, now); r != admitted {
		sp.cfg.Ledger.End(key, sp.holder)
		if r == refusedBreaker {
			return nil, true
		}
		count(sp, sp.stats.deferred(r), 1)
		return nil, false
	}
	job, err := sp.execute(*m, key, now)
	if err != nil {
		// Best-effort: an issue-time failure (I/O fault under the eager
		// execution) is contained — never surfaced to the session. The job
		// was never started, so lifecycle accounting is untouched.
		sp.cfg.Ledger.End(key, sp.holder)
		sp.noteFailure(key.Manip, now, err)
		return nil, true
	}
	sp.start(job)
	return job, false
}

// isKnown filters out a candidate whose ledger entry is key: abandoned
// (DESIGN.md §8), run or held by this session, or already in the database.
func (sp *Speculator) isKnown(m *Manipulation, key AssetKey) bool {
	if sp.failures[key.Manip] >= maxManipAttempts || sp.cfg.Ledger.Holds(key, sp.holder) {
		return true
	}
	switch m.Kind {
	case ManipMaterialize:
		// An identical view may pre-exist (Figure 6's Spec+Views mode). Another
		// session's ready shared build is not "known", though: the subplan
		// stays enumerable so the walk can adopt (refcount) it instead of
		// silently freeloading on a view that may be dropped out from under
		// this session.
		return sp.eng.Catalog.ViewByGraph(m.Graph) != nil && !sp.cfg.Ledger.IsReady(key)
	case ManipIndex:
		t, err := sp.eng.Catalog.Table(m.Rel)
		return err != nil || t.Index(m.Col) != nil
	case ManipHistogram:
		t, err := sp.eng.Catalog.Table(m.Rel)
		return err != nil || t.ColumnStats(m.Col).Hist() != nil
	case ManipStage:
		return sp.stagedRels[m.Rel]
	}
	return false
}

// execute runs the manipulation, whose ledger entry is key, eagerly, hides
// its side effects until completion, and returns the not-yet-started job. The
// entry records the job's span and page-I/O time, which other sessions' GOs
// wait behind (Speculator.deviceWait); the build itself is never stretched.
func (sp *Speculator) execute(m Manipulation, key AssetKey, now sim.Time) (*Job, error) {
	job := &Job{Manip: m, IssuedAt: now, asset: key}
	var res *engine.Result
	var err error
	switch m.Kind {
	case ManipMaterialize:
		name := sp.eng.FreshName(sp.cfg.NamePrefix)
		if res, err = sp.eng.Materialize(name, m.Graph, forcedViews); err != nil {
			return nil, err
		}
		sp.eng.Catalog.DropView(name) // hidden until completion
		job.tableName = name
	case ManipIndex:
		if res, err = sp.eng.CreateIndex(m.Rel, m.Col, nil); err != nil {
			return nil, err
		}
		t, err := sp.eng.Catalog.Table(m.Rel)
		if err != nil {
			return nil, err
		}
		job.index = t.Index(m.Col)
		t.RemoveIndex(m.Col) // hidden until completion
	case ManipHistogram:
		if res, err = sp.eng.CreateHistogram(m.Rel, m.Col, nil); err != nil {
			return nil, err
		}
		t, err := sp.eng.Catalog.Table(m.Rel)
		if err != nil {
			return nil, err
		}
		job.histogram = t.ColumnStats(m.Col).Hist()
		t.SetHistogram(m.Col, nil) // hidden until completion
	case ManipStage:
		if res, err = sp.eng.Stage(m.Rel); err != nil {
			return nil, err
		}
	case ManipPredictFinal:
		job.formKey = FormKey(m.Graph, m.Projs)
		if rows, schema, cost, ok := sp.cfg.Answers.Get(job.formKey, sp.eng.DataVersion); ok {
			// Another session (or an earlier replay) already computed this
			// final: the job completes immediately.
			job.predRows, job.predSchema, job.predCost = rows, schema, cost
			job.fromCache = true
			job.CompletesAt = now
			sp.stats.AnswerCacheHits++
			return job, nil
		}
		job.predVersions = sp.eng.DataVersions(m.Graph.Relations())
		if res, err = sp.eng.RunQuery(&plan.Query{Graph: m.Graph, Projections: m.Projs}); err != nil {
			return nil, err
		}
		job.predRows, job.predSchema = res.Rows, res.Schema
	default:
		return nil, fmt.Errorf("core: cannot issue %v", m)
	}
	switch m.Kind {
	case ManipMaterialize:
		sp.stats.MaterializationsIssued++
		sp.stats.MaterializationTime += res.Duration
	case ManipPredictFinal:
		job.predCost = res.Duration
	}
	job.CompletesAt = now.Add(res.Duration)
	sp.cfg.Ledger.Run(key, sp.holder, now, job.CompletesAt, sp.ioTime(res))
	return job, nil
}

// start registers an executed job — fragment or predicted final alike — as
// outstanding.
func (sp *Speculator) start(job *Job) {
	m, key := &job.Manip, job.asset.Manip
	// The watchdog deadline is k× the cost model's predicted duration.
	job.Deadline = sp.cfg.Governor.DeadlineFor(job.IssuedAt, m.EstDuration)
	job.span = sp.eng.Tracer().Start("manip."+m.Kind.String(), job.IssuedAt, 0,
		obs.Attr{Key: "key", Value: key})
	if job.tableName != "" {
		job.span.Annotate("table", job.tableName)
	}
	if job.fromCache {
		job.span.Annotate("source", "answer_cache")
	}
	if job.asset.Shared() {
		sp.stats.SharedBuilds++
	}
	sp.outstanding = append(sp.outstanding, job)
	job.seq = sp.stats.Issued
	count(sp, &sp.stats.Issued, 1)
	if m.Kind == ManipPredictFinal {
		count(sp, &sp.stats.PredictedIssued, 1)
	}
}
