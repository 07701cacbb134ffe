package core

import (
	"fmt"
	"maps"
	"sort"
	"time"

	"specdb/internal/catalog"
	"specdb/internal/engine"
	"specdb/internal/obs"
	"specdb/internal/plan"
	"specdb/internal/qgraph"
	"specdb/internal/sim"
	"specdb/internal/stats"
	"specdb/internal/trace"
	"specdb/internal/tuple"
)

// Config tunes one Speculator instance.
type Config struct {
	// Ops selects the manipulation families (default: materialize only,
	// matching the paper's evaluation).
	Ops OpSet
	// SelectionsOnly restricts enumeration to selection materializations —
	// the modified multi-user strategy of Section 6.3.
	SelectionsOnly bool
	// Lookahead is the cost model's future-query depth n (Section 3.3).
	Lookahead int
	// MinBenefit is the issuing threshold: manipulations whose expected
	// saving is below it are not worth the risk.
	MinBenefit sim.Duration
	// NamePrefix prefixes speculative table names (unique per user in
	// multi-user runs).
	NamePrefix string
	// AtGo is what a GO does with the jobs still in flight (GoPolicy): the
	// zero value, GoContinue, lets them run on; GoCancel cancels them. A GO
	// never waits for a job.
	AtGo GoPolicy
	// SuspendWhenBusy, when positive, suspends speculation while at least
	// that many jobs are in flight in the ledger — the paper's Section 7
	// load-aware proposal for multi-user settings. 0 disables suspension.
	SuspendWhenBusy int
	// Workers is the maximum number of manipulations this speculator may
	// have outstanding at once. The default (0 or 1) is the paper's
	// convention; higher values fill idle worker slots with the next-best
	// candidates in descending benefit order, each through the worker gate
	// (admitExtra).
	Workers int
	// Ledger is where this speculator writes down every job it starts and
	// every view it holds (DESIGN.md §16). Sessions of one engine share one —
	// they must, for the worker gate or a Governor to see each other's jobs —
	// and on a sharing ledger (DESIGN.md §11) they build identical
	// materialization subplans once and hold them together. Nil makes
	// NewSpeculator create a private, non-sharing one.
	Ledger *Ledger
	// BudgetPages caps this session's retained speculative footprint: the
	// summed EstPages of its outstanding manipulations and completed
	// materializations it still holds. Candidates that would exceed the
	// budget are skipped (Stats.BudgetDeferred). 0 (the default) disables
	// the budget.
	BudgetPages int
	// Governor, when non-nil, is the engine-wide resource-pressure layer
	// (DESIGN.md §13): it gates new issues by pressure band, marks
	// outstanding builds for benefit-ranked shedding, and stamps watchdog
	// deadlines on issued jobs.
	Governor *Governor
	// Predictor, when non-nil, enables whole-query speculation (DESIGN.md
	// §14): the model's top-k predicted final queries are executed ahead of
	// GO as first-class jobs, and a GO matching a completed prediction whose
	// answer is still valid is served the cached rows without executing.
	Predictor *Predictor
	// Answers is the shared answer cache completed predicted finals publish
	// into. Nil with a Predictor set makes NewSpeculator create a private
	// cache; share one across sessions (specdb does) so repeated replays of
	// the same trace reuse each other's answers.
	Answers *AnswerCache
}

// GoPolicy is what OnGo does with the jobs in flight when the final query
// arrives (DESIGN.md §5).
type GoPolicy uint8

const (
	// GoContinue ends no job at GO: every in-flight job keeps its ledger
	// entry, CompletesAt, Deadline and span, and completes, through Advance,
	// when it would have without the GO. Each one passed stillUseful at the
	// last event and the canvas has not changed since, so the walk after the
	// query would only issue it again. Its build already ran at issue, and a
	// session's own jobs never slow its GO (deviceWait).
	GoContinue GoPolicy = iota
	// GoCancel cancels every in-flight job at GO (TermCanceledAtGo): the
	// paper's conservative convention (§3.1), under which no manipulation
	// runs beside the measured query.
	GoCancel
)

// DefaultConfig is the paper's main experimental configuration.
func DefaultConfig() Config {
	return Config{
		Ops:        OpsMaterializeOnly(),
		Lookahead:  3,
		MinBenefit: 200 * time.Millisecond,
		NamePrefix: engine.VolatilePrefix,
	}
}

// forcedViews registers completed materializations with query-rewriting
// semantics — the final query MUST use them — rather than as an option for the
// optimizer, as in the paper's evaluation (Section 4.2).
const forcedViews = true

// Stats counts the Speculator's activity across a session.
type Stats struct {
	Issued int
	// The seven terminals (DESIGN.md §16): every issued job ends in exactly
	// one, so Issued == Terminals() once nothing is outstanding.
	// CanceledInvalidated were canceled because the partial query changed;
	// CanceledAtGo were still running when the final query arrived and the
	// GO policy canceled them (GoCancel);
	// CanceledOnClose were canceled by CancelOutstanding or Shutdown; Aborted
	// were rolled back after a failed completion (DESIGN.md §8); Shed were
	// canceled by the governor under pool pressure, lowest benefit first, and
	// DeadlineAborts by its stuck-job watchdog (DESIGN.md §13).
	Completed           int
	CanceledInvalidated int
	CanceledAtGo        int
	// ContinuedAtGo counts jobs that were in flight at a GO and ran on
	// across it (GoContinue), each job once however many GOs it spans. It is
	// not a terminal: the job still ends in one of the seven.
	ContinuedAtGo int
	// Suspended counts issue opportunities skipped because the server was
	// busy (the SuspendWhenBusy extension).
	Suspended int
	// Deferred counts extra-job candidates (beyond the first outstanding
	// manipulation) the worker gate declined for lack of a worker slot or
	// buffer-pool headroom. Always 0 with Workers <= 1.
	Deferred int
	// MaterializationsIssued counts issued materializations and
	// MaterializationTime is the cumulative sum of their durations; the
	// harness divides the sum by the count to report the per-dataset-size
	// average materialization duration of the paper.
	MaterializationsIssued int
	MaterializationTime    sim.Duration
	// GarbageCollected counts materializations this session built and let go
	// of before its close: the partial query stopped containing them, or the
	// governor shed them.
	GarbageCollected int
	CanceledOnClose  int
	// Failure containment (DESIGN.md §8). Failed counts contained
	// manipulation failures (issue- or completion-time); Abandoned counts
	// manipulation keys given up after maxManipAttempts failures.
	// BreakerTrips counts every opening of this session's circuit breaker,
	// the re-open after a probe that ended with no verdict included;
	// BreakerResumes counts its closing again.
	Failed         int
	Aborted        int
	Abandoned      int
	BreakerTrips   int
	BreakerResumes int
	// Cross-session CSE (DESIGN.md §11). SharedBuilds counts materializations
	// this speculator built under a shared ledger key; SharedAttached counts
	// ready shared builds adopted instead of rebuilt; DedupSaved is the build
	// time those adoptions avoided. BudgetDeferred counts candidates skipped
	// because the per-session page budget (Config.BudgetPages) was exhausted.
	// All zero on a non-sharing ledger with Config.BudgetPages == 0.
	SharedBuilds   int
	SharedAttached int
	DedupSaved     sim.Duration
	BudgetDeferred int
	// Overload governance (DESIGN.md §13). ShedRetained counts COMPLETED
	// materializations dropped under pressure before any query consumed
	// them; those builds already counted as Completed, so it is not a
	// terminal. GovernorDeferred counts issue opportunities the governor
	// refused by pressure band. All zero with Config.Governor == nil.
	Shed             int
	ShedRetained     int
	DeadlineAborts   int
	GovernorDeferred int
	// Whole-query prediction (DESIGN.md §14). PredictedIssued counts
	// predicted-final jobs issued; PredictedCompleted the ones whose answers
	// reached the cache; PredictedCanceled the ones that reached any other
	// terminal. PredictedGos counts GO events served from a completed
	// prediction without executing; InstantSaved is what producing those
	// answers cost — the execution time the GOs avoided. The speculator
	// never writes PredictEquivFailures: a served GO has no second answer to
	// compare with, so that check belongs to the speculation-off oracles of
	// internal/harness and cmd/bench; the field and its counter stay for
	// their readers. AnswerCacheHits counts predicted jobs satisfied from
	// the answer cache at issue time instead of executing. All zero with
	// Config.Predictor nil.
	PredictedIssued      int
	PredictedCompleted   int
	PredictedCanceled    int
	PredictedGos         int
	InstantSaved         sim.Duration
	PredictEquivFailures int
	AnswerCacheHits      int
	// Hits counts final queries whose plan used at least one completed
	// speculative materialization or that a completed prediction answered
	// outright; Misses counts the rest. Hits+Misses is the number of GO
	// events answered.
	Hits   int
	Misses int
	// Waste is simulated manipulation time that never served a query: the
	// elapsed run time of canceled jobs plus the full cost of completed
	// materializations that were garbage-collected unused.
	Waste sim.Duration
}

// Job is one asynchronous manipulation in flight. The engine executed it
// eagerly (side effects hidden); Advance completes it at CompletesAt.
type Job struct {
	Manip       Manipulation
	IssuedAt    sim.Time
	CompletesAt sim.Time
	// Deadline is the stuck-job watchdog's abort instant (governor's
	// deadlineFactor × the manipulation's cost estimate past IssuedAt); zero
	// means none (no governor installed).
	Deadline sim.Time

	// Hidden side effects, published or undone by finish.
	tableName string
	index     *catalog.Index
	histogram *stats.Histogram

	// asset is the job's ledger entry, in flight from claim to terminal;
	// asset.Manip is Manip.Key(), computed once.
	asset AssetKey
	// seq is the job's issue ordinal in its session (Stats.Issued before it).
	seq int
	// continued is set at the first GO the job runs on across
	// (Stats.ContinuedAtGo).
	continued bool

	// Predicted-final payload (ManipPredictFinal only): the answer produced
	// at issue time — fresh execution or answer-cache hit — published to the
	// cache at completion and served instantly if GO matches. predVersions
	// snapshots the base relations' data versions when the rows were computed,
	// so an intervening write invalidates the published entry.
	formKey      string
	predRows     []tuple.Row
	predSchema   *tuple.Schema
	predCost     sim.Duration
	predVersions map[string]uint64
	fromCache    bool

	// span traces the issue→terminal window.
	span *obs.ActiveSpan
}

// EventOutcome reports what an interface event made the Speculator do. An
// owner that calls Advance needs nothing from it; the two job lists serve an
// owner that still schedules Complete itself (cmd/bench).
type EventOutcome struct {
	// Canceled are the jobs this event took off the speculator's plate —
	// invalidated, shed, or canceled at GO (GoCancel); a self-scheduling
	// owner must drop their completions. Under GoContinue a GO lists none:
	// the jobs in flight keep their scheduled completions.
	Canceled []*Job
	// Issued are the newly issued jobs (at most Config.Workers outstanding),
	// all at the event's own instant; a self-scheduling owner must complete
	// each one at its CompletesAt.
	Issued []*Job
}

// Speculator is the central component of the speculation subsystem
// (Figure 3): it tracks the partial query, asks the Cost Model to price the
// Manipulation Space, issues the best manipulations asynchronously in
// descending benefit order, enforces the paper's conventions (cancel on
// invalidation; garbage-collect results the partial query no longer
// indicates useful; at most Workers outstanding manipulations) and
// Config.AtGo's policy for what is in flight at GO, and answers final
// queries on the prepared database.
type Speculator struct {
	eng     *engine.Engine
	learner *Learner
	cm      *CostModel
	cfg     Config

	// canvas is the tracked partial query with its projection list.
	canvas trace.State

	formStart   sim.Time
	formStarted bool
	seenSels    map[string]qgraph.Selection
	seenJoins   map[string]qgraph.Join
	prevFinal   *qgraph.Graph

	// outstanding holds the in-flight jobs in issue order (descending
	// benefit at issue time); at most cfg.Workers entries. Only start adds to
	// it and only finish removes from it.
	outstanding []*Job
	// stagedRels tracks data-staging results for garbage collection.
	stagedRels map[string]bool
	// holder is this session's identity in cfg.Ledger, where every outstanding
	// job has its entry; the ledger is the only record of the views the
	// session holds (HeldViews).
	holder int

	// wasteCharges ledgers every Stats.Waste charge by build identity
	// (wasteBuildID). Each executed build may be charged at most once — the
	// invariant TestWasteChargedOncePerBuild enforces.
	wasteCharges map[string]int

	stats Stats
	// gateAdmitted and gateDeferred count the worker gate's decisions in the
	// engine's registry (sched.admitted, sched.deferred); nil with Workers 1,
	// where the gate never runs.
	gateAdmitted, gateDeferred *obs.Counter
	// mirror maps the address of a Stats field to its counter in the engine's
	// metrics registry (shared across every speculator on the engine, so
	// multi-user runs aggregate); count keeps the two in step.
	mirror map[any]*obs.Counter

	// Failure containment (DESIGN.md §8, failure.go): per-key consecutive
	// failure counts (a key at maxManipAttempts is abandoned), the sim-time
	// before which nothing new is issued (backoff), and the session breaker.
	failures map[string]int
	retryAt  sim.Time
	breaker  sessionBreaker

	// Whole-query prediction (DESIGN.md §14), unused without cfg.Predictor.
	// predStates accumulates the canvas states (partial graph keys) the
	// current formulation passed through, in order, for predictor training at
	// GO; prevKey is the previous final's graph key. predictedReady marks form
	// keys whose predicted job completed this session AND whose cache entry
	// this session holds a reference on; a GO matching one is served from the
	// cache (servePredicted), which unmarks the form if a write invalidated it.
	predStates     []string
	prevKey        string
	predictedReady map[string]bool
}

// NewSpeculator attaches a speculation subsystem to an engine.
func NewSpeculator(eng *engine.Engine, learner *Learner, cfg Config) *Speculator {
	if cfg.NamePrefix == "" {
		cfg.NamePrefix = engine.VolatilePrefix
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.Predictor != nil && cfg.Answers == nil {
		// An unshared private cache still serves this session's own repeated
		// finals.
		cfg.Answers = NewAnswerCache(eng.Metrics(), 0)
	}
	if cfg.Ledger == nil {
		cfg.Ledger = NewLedger(eng.Metrics(), false)
	}
	sp := &Speculator{
		eng:     eng,
		holder:  cfg.Ledger.NewHolder(),
		learner: learner,
		cm: &CostModel{
			Eng:       eng,
			Learner:   learner,
			Lookahead: cfg.Lookahead,
		},
		cfg:            cfg,
		canvas:         trace.State{Graph: qgraph.New()},
		seenSels:       make(map[string]qgraph.Selection),
		seenJoins:      make(map[string]qgraph.Join),
		stagedRels:     make(map[string]bool),
		wasteCharges:   make(map[string]int),
		failures:       make(map[string]int),
		breaker:        newSessionBreaker(eng.Metrics()),
		predictedReady: make(map[string]bool),
		mirror:         make(map[any]*obs.Counter),
	}
	if cfg.Workers > 1 {
		sp.gateAdmitted = eng.Metrics().Counter("sched.admitted")
		sp.gateDeferred = eng.Metrics().Counter("sched.deferred")
	}
	st := &sp.stats
	for _, m := range []struct {
		name  string
		field any // nil: bumped by name at its one site
	}{
		{"spec.issued", &st.Issued},
		{"spec.completed", &st.Completed},
		{"spec.hits", &st.Hits},
		{"spec.misses", &st.Misses},
		{"spec.canceled", nil}, // every cancel terminal
		{"spec.garbage_collected", nil},
		{"spec.waste_ns", &st.Waste},
		{"spec.failed", &st.Failed},
		{"spec.aborted", &st.Aborted},
		{"spec.abandoned", &st.Abandoned},
		{"spec.undo_failures", nil},
		{"spec.deferred", &st.Deferred},
		{"spec.continued_at_go", &st.ContinuedAtGo},
		{"spec.suspended", &st.Suspended},
		{"spec.budget_deferred", &st.BudgetDeferred},
		{"spec.shed", &st.Shed},
		{"spec.shed", &st.ShedRetained},
		{"spec.deadline_aborts", &st.DeadlineAborts},
		{"spec.governor_deferred", &st.GovernorDeferred},
		{"spec.predicted_issued", &st.PredictedIssued},
		{"spec.predicted_completed", &st.PredictedCompleted},
		{"spec.predicted_canceled", &st.PredictedCanceled},
		{"spec.predicted_gos", &st.PredictedGos},
		{"spec.predict_equiv_failures", &st.PredictEquivFailures}, // never bumped; see Stats
		{"spec.instant_saved_ns", &st.InstantSaved},
		{"breaker.opened", &st.BreakerTrips},
		{"breaker.closed", &st.BreakerResumes},
	} {
		c := eng.Metrics().Counter(m.name)
		if m.field != nil {
			sp.mirror[m.field] = c
		}
	}
	return sp
}

// count adds n to a Stats field and to its registry mirror, if it has one.
func count[T ~int | ~int64](sp *Speculator, field *T, n T) {
	*field += n
	if c := sp.mirror[field]; c != nil {
		c.Add(int64(n))
	}
}

// chargeWaste charges d of never-useful manipulation time to Stats.Waste and
// ledgers it under buildID (wasteBuildID): a single execution's cost must hit
// Waste at most once, however it terminates (canceled, aborted, or
// garbage-collected unused).
func (sp *Speculator) chargeWaste(buildID string, d sim.Duration) {
	count(sp, &sp.stats.Waste, d)
	sp.wasteCharges[buildID]++
}

// wasteBuildID names a job's execution for the waste ledger: the speculative
// table for a materialization, key@issue-instant for the rest. A build that
// ran for nothing can share key@issue-instant with a re-issue at that instant
// (a GO canceling a follow-up its Advance just issued), so its name adds the
// job's issue ordinal.
func wasteBuildID(job *Job, ran sim.Duration) string {
	switch {
	case job.tableName != "":
		return job.tableName
	case ran == 0:
		return fmt.Sprintf("%s@%d#%d", job.asset.Manip, int64(job.IssuedAt), job.seq)
	}
	return fmt.Sprintf("%s@%d", job.asset.Manip, int64(job.IssuedAt))
}

// WasteCharges exposes the per-build waste ledger (build identity → number of
// charges) for the charged-once invariant test. The returned map is a copy.
func (sp *Speculator) WasteCharges() map[string]int { return maps.Clone(sp.wasteCharges) }

// Stats reports session counters.
func (sp *Speculator) Stats() Stats { return sp.stats }

// Partial exposes the tracked partial query (for tests and diagnostics).
func (sp *Speculator) Partial() *qgraph.Graph { return sp.canvas.Graph }

// Learner exposes the user profile.
func (sp *Speculator) Learner() *Learner { return sp.learner }

// OnEvent processes one non-GO interface event at simulated time now. It
// updates the partial query, cancels an invalidated outstanding job, garbage-
// collects stale materializations, and — if the slot is free — issues the
// best-scoring manipulation.
func (sp *Speculator) OnEvent(ev trace.Event, now sim.Time) (EventOutcome, error) {
	var out EventOutcome
	if ev.Kind == trace.EvGo {
		return out, fmt.Errorf("core: GO events go to OnGo")
	}
	if !sp.formStarted {
		sp.formStarted = true
		sp.formStart = now
	}
	if err := sp.apply(ev); err != nil {
		return out, err
	}
	if sp.cfg.Predictor != nil && !sp.canvas.Graph.IsEmpty() {
		// Record the canvas state for predictor training at GO.
		sp.predStates = append(sp.predStates, sp.canvas.Graph.Key())
	}

	// Convention 1: cancel manipulations whose benefit disappeared.
	out.Canceled = sp.finishWhere(TermCanceledInvalidated, now, func(job *Job) bool {
		return !sp.stillUseful(job.Manip)
	})
	// Convention 2: garbage-collect completed results the partial query no
	// longer indicates useful.
	if err := sp.collectGarbage(dropGC); err != nil {
		return out, err
	}
	// Overload governance (DESIGN.md §13) runs after the conventions (an
	// invalidated job is already gone — no point shedding it) and before
	// fillSlots (freed footprint may lift the pressure band that gates new
	// issues).
	shedBefore := sp.stats.ShedRetained
	degraded, err := sp.governDegrade(now)
	if err != nil {
		return out, err
	}
	out.Canceled = append(out.Canceled, degraded...)
	// Convention 3: at most cfg.Workers outstanding manipulations. A session
	// the governor just degraded sits this boundary out — re-issuing the
	// build it was told to drop would turn shedding into thrash.
	if len(degraded) > 0 || sp.stats.ShedRetained > shedBefore {
		return out, nil
	}
	out.Issued, err = sp.fillSlots(now)
	return out, err
}

// Complete finalizes a job at its completion time, making its results
// visible to the optimizer, and — a slot now being free — may issue the next
// manipulations for the current partial query. A finalization failure is
// contained (the job ends aborted instead), never surfaced to the session.
func (sp *Speculator) Complete(job *Job, now sim.Time) ([]*Job, error) {
	if !sp.finish(job, TermCompleted, now, nil) {
		// Programmer invariant (a self-scheduling owner completes each issued
		// job exactly once), not a containable I/O failure.
		return nil, fmt.Errorf("core: completing a job that is not outstanding")
	}
	// Keep preparing: a slot is free and the user is still thinking (or
	// viewing results — either way the canvas indicates what comes next).
	return sp.fillSlots(now)
}

// Advance completes every outstanding job due by t, each at its own
// CompletesAt: earliest first, issue order on ties (outstanding is in issue
// order). Each completion refills the freed slot, so a follow-up that is itself
// due by t completes in the same call. Owners call it with an event's time
// before handing over the event (DESIGN.md §16, "Who completes a job").
func (sp *Speculator) Advance(t sim.Time) error {
	for {
		var due *Job
		for _, job := range sp.outstanding {
			if job.CompletesAt <= t && (due == nil || job.CompletesAt < due.CompletesAt) {
				due = job
			}
		}
		if due == nil {
			return nil
		}
		if _, err := sp.Complete(due, due.CompletesAt); err != nil {
			return err
		}
	}
}

// governDegrade applies the engine governor's overload decisions at one
// event boundary (DESIGN.md §13) and returns the jobs it took off the plate:
// first the stuck-job watchdog ends builds past their deadline; then the
// governor's benefit-ranked shed marks are applied to in-flight builds and to
// held views alike.
func (sp *Speculator) governDegrade(now sim.Time) ([]*Job, error) {
	if sp.cfg.Governor == nil {
		return nil, nil
	}
	dropped := sp.finishWhere(TermDeadlineExceeded, now, func(job *Job) bool {
		return job.Deadline != 0 && now >= job.Deadline
	})
	shed := sp.cfg.Governor.ShedSet(sp.cfg.Ledger, sp.holder, now)
	if len(shed) == 0 {
		return dropped, nil
	}
	dropped = append(dropped, sp.finishWhere(TermShed, now, func(job *Job) bool { return shed[job.asset] })...)
	for _, h := range sp.cfg.Ledger.HeldViews(sp.holder) {
		if shed[h.Key] {
			if err := sp.dropHeld(h, dropShed); err != nil {
				return dropped, err
			}
		}
	}
	return dropped, nil
}

// OnGo handles the final query: the jobs in flight run on or are canceled,
// as Config.AtGo says, and none is waited for; the final query is served
// from a ready prediction or runs on the prepared database (completed
// materializations rewrite it), and the Learner trains on the observed
// formulation. The canvas still shows the query while the user views
// results, so the Speculator keeps preparing: the outcome may carry freshly
// issued manipulations for the next query, in whatever slots are free, all
// issued at now.
func (sp *Speculator) OnGo(now sim.Time) (*engine.Result, EventOutcome, error) {
	var out EventOutcome
	if sp.cfg.AtGo == GoCancel {
		out.Canceled = sp.finishWhere(TermCanceledAtGo, now, func(*Job) bool { return true })
	} else {
		for _, job := range sp.outstanding {
			if !job.continued {
				job.continued = true
				count(sp, &sp.stats.ContinuedAtGo, 1)
			}
		}
	}
	if sp.canvas.Graph.IsEmpty() {
		return nil, out, fmt.Errorf("core: GO with empty partial query")
	}
	final := sp.canvas.Graph.Clone()

	q, err := plan.BindGraphProjections(sp.eng.Catalog, final, sp.canvas.Projs)
	if err != nil {
		return nil, out, err
	}
	// Instant GO (DESIGN.md §14): a ready prediction of exactly this final is
	// the answer — nothing executes. Every other GO runs on the prepared
	// database.
	res := sp.servePredicted(final, q)
	if res == nil {
		if res, err = sp.eng.RunQuery(q); err != nil {
			return nil, out, err
		}
		res.Duration += sp.deviceWait(now, res)
		sp.recordHit(res.Plan)
	}

	// Train the Learner. The survival counters decay exponentially, so the
	// observation order matters — flatten the seen sets in sorted key order,
	// not map order, or the learned estimates (and every downstream benefit
	// score) drift between otherwise identical runs.
	seenSels := make([]qgraph.Selection, 0, len(sp.seenSels))
	for _, key := range sortedKeys(sp.seenSels) {
		seenSels = append(seenSels, sp.seenSels[key])
	}
	seenJoins := make([]qgraph.Join, 0, len(sp.seenJoins))
	for _, key := range sortedKeys(sp.seenJoins) {
		seenJoins = append(seenJoins, sp.seenJoins[key])
	}
	sp.learner.ObserveFormulation(seenSels, seenJoins, final)
	if sp.prevFinal != nil {
		sp.learner.ObserveTransition(sp.prevFinal, final)
	}
	if sp.formStarted {
		sp.learner.ObserveFormulationDuration(now.Sub(sp.formStart).Seconds())
	}
	sp.publishProfile()
	// Train the predictor on the completed formulation: every canvas state it
	// passed through, plus the previous final, predicted THIS final form.
	if sp.cfg.Predictor != nil {
		sp.cfg.Predictor.ObserveFinal(sp.predStates, sp.prevKey, final, q.Projections)
		sp.predStates, sp.prevKey = nil, final.Key()
	}
	sp.prevFinal = final
	sp.seenSels = make(map[string]qgraph.Selection)
	sp.seenJoins = make(map[string]qgraph.Join)
	sp.formStarted = false
	// Use the result-viewing pause: prepare for the next query, which will
	// very likely retain most of this one's parts (Section 5 persistence).
	if out.Issued, err = sp.fillSlots(now); err != nil {
		return nil, out, err
	}
	return res, out, nil
}

// deviceWait is how much longer an executed GO's page I/O takes because
// other sessions' in-flight jobs keep the device busy for part of its window
// [now, now+d) (DESIGN.md §6): its I/O time times that share. A GO that reads
// no page waits for nothing.
func (sp *Speculator) deviceWait(now sim.Time, res *engine.Result) sim.Duration {
	busy := sp.cfg.Ledger.DeviceBusy(sp.holder, now, now.Add(res.Duration))
	if busy == 0 {
		return 0
	}
	return mulDiv(sp.ioTime(res), busy, res.Duration)
}

// ioTime is the page-I/O part of a statement's duration: all but its tuples.
func (sp *Speculator) ioTime(res *engine.Result) sim.Duration {
	return res.Duration - sim.Duration(res.Work.Tuples)*sp.eng.Rates().Tuple
}

// servePredicted answers a GO from the session's ready prediction of exactly
// this final, or returns nil when there is none. The cache validates the
// entry's per-relation version snapshot under its lock, so a served answer is
// never older than the last committed write to a relation it read. The rows
// are the cache's own — shared and read-only for every consumer. Nothing is
// read, so no held view is marked paid; the GO still counts as a speculation
// hit, and InstantSaved banks what producing the answer cost.
func (sp *Speculator) servePredicted(final *qgraph.Graph, q *plan.Query) *engine.Result {
	if sp.cfg.Predictor == nil {
		return nil
	}
	fk := FormKey(final, q.Projections)
	if !sp.predictedReady[fk] {
		return nil
	}
	rows, schema, cost, ok := sp.cfg.Answers.Get(fk, sp.eng.DataVersion)
	if !ok {
		// A write invalidated the entry, and this session's reference went
		// with it: unmark the form so it can be predicted again.
		delete(sp.predictedReady, fk)
		return nil
	}
	count(sp, &sp.stats.PredictedGos, 1)
	count(sp, &sp.stats.InstantSaved, cost)
	count(sp, &sp.stats.Hits, 1)
	return &engine.Result{Rows: rows, Schema: schema, RowCount: int64(len(rows))}
}

// apply mutates the canvas by one event, recording seen parts.
func (sp *Speculator) apply(ev trace.Event) error {
	if err := sp.canvas.Apply(ev); err != nil {
		return err
	}
	switch ev.Kind {
	case trace.EvAddSelection:
		s, err := ev.Sel.ToSelection()
		if err != nil {
			return err
		}
		sp.seenSels[s.Key()] = s
	case trace.EvAddJoin:
		j := ev.Join.ToJoin()
		sp.seenJoins[j.Key()] = j
	case trace.EvClear:
		// Clearing the canvas abandons the formulation: parts and states
		// seen so far must not train the Learner or the Predictor against the
		// NEXT final query, and the think-time model must not span the
		// abandoned task. The next event starts a fresh formulation window.
		sp.seenSels = make(map[string]qgraph.Selection)
		sp.seenJoins = make(map[string]qgraph.Join)
		sp.predStates = nil
		sp.formStarted = false
		sp.formStart = 0
	}
	return nil
}

// stillUseful reports whether a manipulation's target is still indicated by
// the partial query.
func (sp *Speculator) stillUseful(m Manipulation) bool {
	switch m.Kind {
	case ManipStage:
		return sp.canvas.Graph.HasRelation(m.Rel)
	case ManipPredictFinal:
		// Reversed containment: the predicted FINAL must still extend the
		// partial query. An edit that leaves the prediction's query graph
		// falsifies it — the user is headed somewhere else.
		return m.Graph.Contains(sp.canvas.Graph)
	default:
		return sp.canvas.Graph.Contains(m.Graph)
	}
}

// collectGarbage drops the held views and staged relations the partial query
// no longer contains — at session close (dropClose), all of them.
func (sp *Speculator) collectGarbage(reason dropReason) error {
	// DropTable/Unstage mutate shared engine state (catalog, buffer pool), so
	// the call order must not depend on map iteration order: the engine is
	// reused across traces and a different drop order leaves a different LRU
	// state behind, making paired runs non-reproducible.
	for _, h := range sp.cfg.Ledger.HeldViews(sp.holder) {
		if reason == dropGC {
			if v := sp.eng.Catalog.View(h.Table); v != nil && sp.canvas.Graph.Contains(v.Graph) {
				continue
			}
		}
		if err := sp.dropHeld(h, reason); err != nil {
			return err
		}
	}
	for _, rel := range sortedKeys(sp.stagedRels) {
		if reason == dropGC && sp.canvas.Graph.HasRelation(rel) {
			continue
		}
		if err := sp.eng.Unstage(rel); err != nil {
			return err
		}
		delete(sp.stagedRels, rel)
	}
	return nil
}

// sortedKeys returns a map's keys in sorted order so that engine-mutating
// teardown loops run in a reproducible sequence.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// recordHit classifies one answered GO: a hit if the final plan read at least
// one held view. Views that served a query are marked paid-for in the ledger,
// so whoever drops them later does not charge their build cost as waste.
func (sp *Speculator) recordHit(node plan.Node) {
	hit := false
	plan.Walk(node, func(n plan.Node) {
		if a, ok := n.(*plan.TableAccess); ok && sp.cfg.Ledger.MarkPaid(sp.holder, a.Table.Name) {
			hit = true
		}
	})
	if hit {
		count(sp, &sp.stats.Hits, 1)
	} else {
		count(sp, &sp.stats.Misses, 1)
	}
}

// publishProfile pushes the Learner's current global estimates into the
// engine's metrics registry as gauges.
func (sp *Speculator) publishProfile() {
	ps := sp.learner.ProfileSnapshot()
	m := sp.eng.Metrics()
	m.Gauge("learner.selection_survival").Set(ps.SelectionSurvival)
	m.Gauge("learner.join_survival").Set(ps.JoinSurvival)
	m.Gauge("learner.selection_retention").Set(ps.SelectionRetention)
	m.Gauge("learner.join_retention").Set(ps.JoinRetention)
	m.Gauge("learner.think_median_s").Set(ps.ThinkMedianSeconds)
}

// CancelOutstanding cancels the in-flight manipulations, if any, and returns
// them. Sessions use it when their context is canceled mid-manipulation; there
// is no timeline at teardown, hence the zero instant.
func (sp *Speculator) CancelOutstanding() []*Job {
	return sp.finishWhere(TermCanceledOnClose, 0, func(*Job) bool { return true })
}

// Shutdown drops everything the Speculator still owns (end of session).
func (sp *Speculator) Shutdown() error {
	sp.CancelOutstanding()
	if err := sp.collectGarbage(dropClose); err != nil {
		return err
	}
	// Drop the session's answer-cache references: the completed predictions
	// stay cached (evictable assets for future replays), just unpinned.
	for _, fk := range sortedKeys(sp.predictedReady) {
		sp.cfg.Answers.Release(fk)
	}
	sp.predictedReady = make(map[string]bool)
	return nil
}
