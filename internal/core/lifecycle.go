package core

import (
	"slices"

	"specdb/internal/sim"
)

// Terminal is how an issued job ended (DESIGN.md §16). Every job reaches
// exactly one, through finish; String is the job span's "outcome" annotation.
type Terminal uint8

// The terminals, in the order of the Stats fields that count them (see there).
const (
	TermCompleted Terminal = iota
	TermCanceledInvalidated
	TermCanceledAtGo
	TermCanceledOnClose
	TermAborted
	TermShed
	TermDeadlineExceeded
	numTerminals
)

func (t Terminal) String() string {
	return [numTerminals]string{"completed", "canceled_invalidated", "canceled_at_go",
		"canceled_on_close", "aborted", "shed", "deadline_exceeded"}[t]
}

// terminal is the Stats field counting t.
func (s *Stats) terminal(t Terminal) *int {
	return [numTerminals]*int{&s.Completed, &s.CanceledInvalidated, &s.CanceledAtGo,
		&s.CanceledOnClose, &s.Aborted, &s.Shed, &s.DeadlineAborts}[t]
}

// Terminals is the number of jobs that have ended, whichever way. finish is
// the only writer of the terminal counters and runs once per job, so a
// speculator with nothing outstanding has Issued == Terminals().
func (s Stats) Terminals() int {
	n := 0
	for t := Terminal(0); t < numTerminals; t++ {
		n += *s.terminal(t)
	}
	return n
}

// finish is the one terminal transition (DESIGN.md §16 lists what it owns,
// in order): it takes job off the outstanding list and ends it as t at
// simulated instant at (0: the owner has no timeline — session teardown). It
// reports false, having done nothing, when job is not outstanding. A
// TermCompleted whose side effects cannot be published ends TermAborted
// instead, with the publishing error as cause.
func (sp *Speculator) finish(job *Job, t Terminal, at sim.Time, cause error) bool {
	i := slices.Index(sp.outstanding, job)
	if i < 0 {
		return false
	}
	sp.outstanding = slices.Delete(sp.outstanding, i, i+1)
	key := job.asset.Manip
	if t == TermCompleted {
		if err := sp.publish(job); err != nil {
			t, cause = TermAborted, err
		}
	}

	// Waste: nothing for a completion, the whole run for an abort, the
	// elapsed part for a cancel.
	ran, end := job.CompletesAt.Sub(job.IssuedAt), at
	if t == TermCompleted {
		end = job.CompletesAt
	} else {
		sp.undo(job)
		if t != TermAborted {
			switch elapsed := at.Sub(job.IssuedAt); {
			case at == 0:
				end = job.IssuedAt
			case elapsed < ran:
				ran = elapsed
			}
			sp.eng.Metrics().Counter("spec.canceled").Inc()
		}
		sp.chargeWaste(wasteBuildID(job, ran), ran)
	}
	if job.span != nil {
		job.span.Annotate("outcome", t.String())
		if t == TermAborted {
			job.span.Annotate("error", cause.Error())
		}
		job.span.End(end)
		job.span = nil
	}

	switch t {
	case TermCompleted:
		delete(sp.failures, key)
		if sp.breaker.success() {
			count(sp, &sp.stats.BreakerResumes, 1)
		}
		sp.cfg.Governor.NoteSuccess(at)
	case TermAborted:
		sp.noteFailure(key, at, cause)
	default:
		// A canceled half-open probe resolves nothing: re-open the breaker so
		// a later probe gets its turn (no-op unless half-open).
		if sp.breaker.canceled(at) {
			count(sp, &sp.stats.BreakerTrips, 1)
		}
		if t == TermDeadlineExceeded {
			// A strike on the GLOBAL breaker only: an overrunning build is
			// usually a victim of engine-wide pressure, and tripping the
			// session breaker too would double-punish the victim.
			sp.cfg.Governor.NoteFailure(at)
		}
	}
	count(sp, sp.stats.terminal(t), 1)
	if job.Manip.Kind == ManipPredictFinal {
		if t == TermCompleted {
			count(sp, &sp.stats.PredictedCompleted, 1)
		} else {
			count(sp, &sp.stats.PredictedCanceled, 1)
		}
	}
	return true
}

// finishWhere ends, as t at instant at, every outstanding job sel selects, in
// issue order, and returns them (EventOutcome.Canceled reports them).
func (sp *Speculator) finishWhere(t Terminal, at sim.Time, sel func(*Job) bool) []*Job {
	var done []*Job
	for i := 0; i < len(sp.outstanding); {
		if job := sp.outstanding[i]; sel(job) {
			sp.finish(job, t, at, nil) // removes outstanding[i]
			done = append(done, job)
		} else {
			i++
		}
	}
	return done
}

// publish makes a completed job's hidden side effects visible and settles its
// ledger entry: a materialization becomes a held view (its pages stay counted
// until dropHeld); indexes, histograms, staged pages and published predicted
// answers become durable improvements that stop counting against the
// session's budget (the answer cache accounts its own footprint).
func (sp *Speculator) publish(job *Job) error {
	m := &job.Manip
	switch m.Kind {
	case ManipMaterialize:
		if err := sp.eng.Catalog.RegisterView(job.tableName, m.Graph, forcedViews); err != nil {
			return err
		}
		sp.cfg.Ledger.Ready(job.asset, sp.holder, job.tableName, job.CompletesAt.Sub(job.IssuedAt))
		return nil
	case ManipIndex:
		t, err := sp.eng.Catalog.Table(m.Rel)
		if err != nil {
			return err
		}
		t.SetIndex(m.Col, job.index)
	case ManipHistogram:
		t, err := sp.eng.Catalog.Table(m.Rel)
		if err != nil {
			return err
		}
		t.SetHistogram(m.Col, job.histogram)
	case ManipStage:
		sp.stagedRels[m.Rel] = true
	case ManipPredictFinal:
		// A fresh build enters the cache under its issue-time version
		// snapshot, holding the producer's reference; a cache-path job
		// re-references the entry it was satisfied from (which a concurrent
		// write may have invalidated since — then the prediction quietly
		// yields nothing). Either way the form is marked ready for an instant
		// GO only while this session holds a reference, so the entry cannot be
		// evicted out from under it. The walk never issues a final the cache
		// does not admit (walkPredicted), so Put refuses none by that rule.
		if job.fromCache {
			if sp.cfg.Answers.Ref(job.formKey) {
				sp.predictedReady[job.formKey] = true
			}
		} else if sp.cfg.Answers.Put(job.formKey, job.predRows, job.predSchema, job.predCost, m.EstPages, job.predVersions) {
			sp.predictedReady[job.formKey] = true
		}
	}
	sp.cfg.Ledger.End(job.asset, sp.holder)
	return nil
}

// undo reverts an unfinished job's hidden side effects and closes its ledger
// entry. Undo is best-effort — a failure leaves garbage, never corruption —
// but is counted, so the fault matrix can see it.
func (sp *Speculator) undo(job *Job) {
	sp.cfg.Ledger.End(job.asset, sp.holder)
	var err error
	switch job.Manip.Kind {
	case ManipMaterialize:
		// The table was never registered as a view; drop it. Its buffer-pool
		// footprint remains, as a really-canceled job's would.
		err = sp.eng.DropTable(job.tableName)
	case ManipIndex:
		if job.index != nil {
			err = sp.eng.DropDetachedIndex(job.index) // the tree was never published
		}
	case ManipStage:
		err = sp.eng.Unstage(job.Manip.Rel)
	}
	// A histogram or an unpublished predicted answer simply becomes garbage.
	if err != nil {
		sp.eng.Metrics().Counter("spec.undo_failures").Inc()
	}
}

// dropReason is why a held view goes; it decides the waste charge and the
// counter.
type dropReason uint8

const (
	dropGC    dropReason = iota // the partial query no longer contains it
	dropShed                    // the governor marked it under pressure
	dropClose                   // session teardown: never waste
)

// dropHeld lets go of this session's hold h on a ready view. Its last holder
// drops the table, and only then — if no final query ever read it and the
// session is not closing — is its cost charged, once across all sessions
// (DESIGN.md §11).
func (sp *Speculator) dropHeld(h Holding, reason dropReason) error {
	r := sp.cfg.Ledger.Release(h.Key, sp.holder, reason == dropClose)
	if r.Built && reason != dropClose {
		sp.stats.GarbageCollected++
	}
	if r.Last {
		if err := sp.eng.DropTable(h.Table); err != nil {
			return err
		}
		// A closing session's own tables are teardown, not collection; a shared
		// view's last drop has always counted, whatever the reason, and
		// wide_cse_budget.decisions.golden pins that.
		if reason != dropClose || h.Key.Shared() {
			sp.eng.Metrics().Counter("spec.garbage_collected").Inc()
		}
		if r.Charge {
			sp.chargeWaste(h.Table, r.Cost)
		}
	}
	if reason == dropShed {
		count(sp, &sp.stats.ShedRetained, 1)
	}
	return nil
}

// adoptReady attaches this session to the completed build of m's subplan that
// another session holds, if there is one (only views ever become ready, and
// only a sharing ledger lets a second session find them): refcounted until
// this session drops it. No job is issued and no build time is spent — the
// avoided cost is recorded as DedupSaved. Adoption occupies no worker slot and
// is never budget-gated (the pages exist once globally, whoever holds them).
func (sp *Speculator) adoptReady(m *Manipulation, key AssetKey) bool {
	cost, ok := sp.cfg.Ledger.Attach(key, sp.holder, m.EstPages)
	if !ok {
		return false
	}
	sp.stats.SharedAttached++
	sp.stats.DedupSaved += cost
	return true
}
