package specdb

import (
	"context"
	"fmt"
	"sync"
	"time"

	"specdb/internal/core"
	"specdb/internal/qgraph"
	"specdb/internal/sim"
	"specdb/internal/trace"
	"specdb/internal/tuple"
)

// SessionConfig tunes a speculative session.
type SessionConfig struct {
	// SelectionsOnly restricts manipulations to selection materializations
	// (the paper's multi-user strategy).
	SelectionsOnly bool
}

// Session is the programmatic equivalent of the paper's visual query
// interface: the caller edits a query part by part, think-time passes, and
// Go submits the final query. A Speculator watches every edit and prepares
// the database in the background (on the simulated timeline).
//
// A Session is safe for concurrent use, though its operations serialize on an
// internal lock; the intended concurrency model is many sessions — each with
// its own deterministic clock — running against one shared DB (see
// SessionManager).
type Session struct {
	db  *DB
	ctx context.Context
	mgr *SessionManager
	id  int64

	mu     sync.Mutex
	sp     *core.Speculator
	clock  *sim.Clock
	closed bool
	// recorded holds the session's interaction for TraceJSON.
	recorded []trace.Event
}

// NewSession opens a standalone session at simulated time zero with its own
// single-user profile. Use a SessionManager to open sessions that share one
// learned profile.
func (db *DB) NewSession(cfg SessionConfig) *Session {
	return db.NewSessionContext(context.Background(), cfg)
}

// NewSessionContext opens a standalone session whose operations observe ctx:
// once ctx is canceled, any in-flight manipulation is canceled and every
// subsequent session call fails with the context's error.
func (db *DB) NewSessionContext(ctx context.Context, cfg SessionConfig) *Session {
	learner := db.learner // durable databases persist one shared profile
	if learner == nil {
		learner = core.NewLearner(core.DefaultLearnerConfig())
	}
	return db.newSession(ctx, cfg, learner, core.DefaultConfig().NamePrefix, nil, 0)
}

func (db *DB) newSession(ctx context.Context, cfg SessionConfig, learner *core.Learner, prefix string, mgr *SessionManager, id int64) *Session {
	c := core.DefaultConfig()
	c.SelectionsOnly = cfg.SelectionsOnly
	c.NamePrefix = prefix
	c.Workers = db.specWorkers
	c.Ledger = db.ledger
	c.Governor = db.gov
	c.Predictor = db.pred
	c.Answers = db.answers
	c.BudgetPages = db.budgetPages
	return &Session{db: db, ctx: ctx, mgr: mgr, id: id, clock: sim.NewClock(),
		sp: core.NewSpeculator(db.eng, learner, c)}
}

// Now reports the session's position on the simulated timeline.
func (s *Session) Now() time.Duration { return time.Duration(s.clock.Now()) }

// checkLive reports the context or closed error that invalidates the session,
// canceling any in-flight manipulation on first detection. Callers hold s.mu.
func (s *Session) checkLive() error {
	if s.closed {
		return fmt.Errorf("specdb: session is closed")
	}
	if err := s.ctx.Err(); err != nil {
		s.sp.CancelOutstanding()
		return fmt.Errorf("specdb: session canceled: %w", err)
	}
	return nil
}

// recoverTo converts a panic escaping a session call — an internal bug —
// into a returned error. The stack is preserved in the engine's panic log
// and counted under the recovered_panics metric; the session stays usable.
func (s *Session) recoverTo(op string, err *error) {
	if r := recover(); r != nil {
		*err = s.db.eng.RecordPanic("session."+op, r)
	}
}

// Think advances simulated time: the user is reading, typing, or pondering.
// Asynchronous manipulations that finish within the window complete;
// completion failures are contained by the speculator (the job is rolled
// back and retried or abandoned), never surfaced here.
func (s *Session) Think(d time.Duration) (err error) {
	defer s.recoverTo("Think", &err)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkLive(); err != nil {
		return err
	}
	if d < 0 {
		return fmt.Errorf("specdb: negative think time %v", d)
	}
	target := s.clock.Now().Add(simDuration(d))
	if err = s.sp.Advance(target); err != nil {
		err = fmt.Errorf("specdb: completing manipulation: %w", err)
	}
	s.clock.AdvanceTo(target)
	return err
}

// apply routes one interface event through the speculator.
func (s *Session) apply(ev trace.Event) (err error) {
	defer s.recoverTo("apply", &err)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkLive(); err != nil {
		return err
	}
	if _, err := s.sp.OnEvent(ev, s.clock.Now()); err != nil {
		return err
	}
	s.record(ev)
	return nil
}

// AddSelection places a selection predicate on the canvas:
// rel.col op value, with op one of = <> < <= > >= and value an int, int64,
// float64, string, or — for date columns — a time.Time.
func (s *Session) AddSelection(rel, col, op string, value any) error {
	sel, err := makeSelection(rel, col, op, value)
	if err != nil {
		return err
	}
	sj := trace.FromSelection(sel)
	return s.apply(trace.Event{Kind: trace.EvAddSelection, Sel: &sj})
}

// RemoveSelection removes a previously placed predicate (exact match).
func (s *Session) RemoveSelection(rel, col, op string, value any) error {
	sel, err := makeSelection(rel, col, op, value)
	if err != nil {
		return err
	}
	sj := trace.FromSelection(sel)
	return s.apply(trace.Event{Kind: trace.EvRemoveSelection, Sel: &sj})
}

// AddJoin places an equi-join edge between two relations.
func (s *Session) AddJoin(rel1, col1, rel2, col2 string) error {
	if err := validateJoin(rel1, rel2); err != nil {
		return err
	}
	jj := trace.FromJoin(qgraph.NewJoin(rel1, col1, rel2, col2))
	return s.apply(trace.Event{Kind: trace.EvAddJoin, Join: &jj})
}

// RemoveJoin removes a join edge.
func (s *Session) RemoveJoin(rel1, col1, rel2, col2 string) error {
	if err := validateJoin(rel1, rel2); err != nil {
		return err
	}
	jj := trace.FromJoin(qgraph.NewJoin(rel1, col1, rel2, col2))
	return s.apply(trace.Event{Kind: trace.EvRemoveJoin, Join: &jj})
}

// validateJoin screens user input before qgraph.NewJoin, whose self-join
// panic is a programmer invariant, not input validation.
func validateJoin(rel1, rel2 string) error {
	if rel1 == rel2 {
		return fmt.Errorf("specdb: self-join of %q is not supported", rel1)
	}
	return nil
}

// AddRelation places a bare relation on the canvas.
func (s *Session) AddRelation(rel string) error {
	return s.apply(trace.Event{Kind: trace.EvAddRelation, Rel: rel})
}

// RemoveRelation removes a relation and its incident edges.
func (s *Session) RemoveRelation(rel string) error {
	return s.apply(trace.Event{Kind: trace.EvRemoveRelation, Rel: rel})
}

// SetProjections annotates the output columns ("rel.col"); empty means
// SELECT *.
func (s *Session) SetProjections(cols ...string) error {
	return s.apply(trace.Event{Kind: trace.EvSetProjections, Projs: cols})
}

// Clear empties the canvas (a new exploration task). The speculator also
// resets its formulation tracking: parts of the abandoned task do not train
// the user profile.
func (s *Session) Clear() error {
	return s.apply(trace.Event{Kind: trace.EvClear})
}

// Go submits the final query: any incomplete manipulation runs on, the query
// is served from a completed prediction (Options.PredictFinals; the Result
// then has no Plan) or runs on the prepared database (completed
// materializations rewrite it), and the user profile learns from the
// formulation. Go never moves the session clock: think time alone does.
func (s *Session) Go() (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, s.db.eng.RecordPanic("session.Go", r)
		}
	}()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkLive(); err != nil {
		return nil, err
	}
	eres, _, err := s.sp.OnGo(s.clock.Now())
	if err != nil {
		return nil, err
	}
	s.record(trace.Event{Kind: trace.EvGo})
	return wrapResult(eres), nil
}

// Stats reports a session's speculation counters (core.Stats documents each
// field). Every issued manipulation ends in exactly one terminal state, so
// once a session is closed Issued == Terminals().
type Stats = core.Stats

// Stats reports speculation activity so far.
func (s *Session) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sp.Stats()
}

// ID reports the session's manager-assigned identifier (0 for standalone
// sessions).
func (s *Session) ID() int64 { return s.id }

// Close releases everything the session's speculator still holds and
// deregisters the session from its manager. Closing twice is a no-op.
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.mgr != nil {
		s.mgr.remove(s.id)
	}
	return s.sp.Shutdown()
}

func makeSelection(rel, col, op string, value any) (qgraph.Selection, error) {
	cmp, ok := tuple.ParseCmpOp(op)
	if !ok {
		return qgraph.Selection{}, fmt.Errorf("specdb: unknown operator %q", op)
	}
	v, err := parseValue(value)
	if err != nil {
		return qgraph.Selection{}, err
	}
	return qgraph.Selection{Rel: rel, Col: col, Op: cmp, Const: v}, nil
}
