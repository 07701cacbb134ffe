// Package specdb is a speculative query processing engine: a from-scratch
// relational engine (storage, buffer pool, B+-tree indexes, histograms,
// cost-based optimizer with materialized-view rewriting, Volcano executor)
// topped by the speculation subsystem of Polyzotis & Ioannidis, "Speculative
// Query Processing" (CIDR 2003).
//
// The headline idea: while a user assembles a query in a visual interface,
// the partial query is a preview of the final one. During the user's
// think-time, a Speculator issues asynchronous manipulations — materializing
// sub-queries, building indexes or histograms, staging pages — chosen by a
// cost model (Theorem 3.1 of the paper) and a learned user profile, so the
// final query runs against a prepared database.
//
// Open a DB, load a dataset, and either run plain SQL:
//
//	db := specdb.Open(specdb.Options{})
//	_ = db.LoadTPCH("100MB", 42)
//	res, _ := db.Exec("SELECT * FROM lineitem WHERE lineitem.l_quantity < 5")
//
// or drive a speculative session the way the visual interface would:
//
//	s := db.NewSession(specdb.SessionConfig{})
//	s.AddSelection("lineitem", "l_quantity", "<", 5)
//	s.Think(20 * time.Second) // the Speculator works during think-time
//	res, _ := s.Go()
//
// All time is simulated: results are deterministic and durations reflect the
// engine's page-I/O and per-tuple work, not wall-clock.
package specdb

import (
	"fmt"
	"time"

	"specdb/internal/core"
	"specdb/internal/engine"
	"specdb/internal/fault"
	"specdb/internal/plan"
	"specdb/internal/sim"
	"specdb/internal/tpch"
	"specdb/internal/tuple"
)

// Options configures a database instance.
type Options struct {
	// BufferPoolPages sizes the buffer pool (default 46 pages — the
	// paper's 32 MB pool at this repository's data scale).
	BufferPoolPages int
	// PoolShards is the number of lock-striped buffer-pool shards (default
	// 1: one mutex over every frame, the configuration every pinned
	// experiment runs); more shards reduce lock contention when many
	// sessions run concurrently. The pool clamps the count so every shard
	// keeps at least two frames.
	PoolShards int
	// SpecWorkers caps concurrently outstanding speculative manipulations
	// per session (default 1, the paper's one-at-a-time convention, which
	// every pinned experiment runs). Higher values let a session's
	// speculator keep several manipulations in flight, each extra one
	// admitted only while the buffer pool has headroom.
	SpecWorkers int
	// SharedSpeculation enables the cross-session manipulation CSE layer
	// (DESIGN.md §11): sessions speculating the same subplan materialize it
	// once into a refcounted shared build instead of each building a private
	// copy. Default false — single-session behavior is byte-identical to
	// history.
	SharedSpeculation bool
	// SpecBudgetPages caps each session's retained speculative footprint
	// (outstanding manipulations plus held materializations, in pages).
	// Candidates that would exceed it are skipped. 0 disables the budget.
	SpecBudgetPages int
	// PredictFinals enables whole-query speculation (DESIGN.md §14): a shared
	// n-gram predictor learns which final queries follow which canvas states,
	// sessions execute its top-k predicted finals as first-class speculative
	// jobs, and a GO matching a completed prediction is served the cached
	// rows without executing. Completed answers live in a shared refcounted
	// cache invalidated by base-table writes, so repeated replays of a
	// workload get faster. Default false: with prediction off a session
	// runs only the paper's speculation.
	PredictFinals bool
	// Governor enables the engine-wide overload governor (DESIGN.md §13):
	// pressure-band gating of new speculation, benefit-ranked load shedding,
	// stuck-job deadlines, and a global circuit breaker that forces
	// speculation-off degraded mode on systemic fault rates, all at the
	// defaults that section states. Default false — every decision stays
	// byte-identical to the ungoverned engine.
	Governor bool
	// UseOptionalViews lets the optimizer consider non-forced materialized
	// views (query-materialization semantics).
	UseOptionalViews bool
	// Fault configures deterministic fault injection (disabled at the zero
	// value). With faults enabled the engine degrades gracefully — retries,
	// aborts speculation, replans around bad derived objects — but never
	// fails a user query for an injected fault (see DESIGN.md §8).
	Fault FaultConfig
	// Storage selects the durable page-file backend (DESIGN.md §12). It is
	// honored by OpenDurable; Open ignores it and stays in-memory, where
	// no commit writes a log.
	Storage StorageConfig
}

// StorageConfig configures the durable page-file backend (the public mirror
// of the internal storage configuration). Base tables, the catalog, and the
// learned user profile survive restarts; speculative spec_s<id> namespaces
// are deliberately volatile and rebuilt cleanly after recovery.
type StorageConfig struct {
	// Path is the page file location (the write-ahead log lives at
	// Path + ".wal"). Empty means in-memory.
	Path string
	// CheckpointBytes triggers a WAL checkpoint when a commit finds the log
	// at or above this size (0 means 4 MB).
	CheckpointBytes int64
	// Sync fsyncs the page file and WAL at durability points.
	Sync bool
}

// FaultConfig sets per-operation fault-injection probabilities (fault.Config
// documents each field). Rates are in [0, 1]; the zero value disables
// injection entirely. With equal seeds and equal operation sequences, two runs
// inject identical faults.
type FaultConfig = fault.Config

// DB is a database instance with a speculative query processor attached.
type DB struct {
	eng *engine.Engine
	// specWorkers is every session's Config.Workers (Options.SpecWorkers,
	// at least 1).
	specWorkers int
	// ledger is where every session's speculator enters its jobs and held
	// views; it shares builds across sessions iff Options.SharedSpeculation.
	ledger *core.Ledger
	// budgetPages is every session's speculation budget
	// (Options.SpecBudgetPages; 0 = unlimited).
	budgetPages int
	// gov is the engine-wide overload governor (nil unless Options.Governor).
	gov *core.Governor
	// pred and answers are the shared final-query predictor and answer cache
	// (nil unless Options.PredictFinals).
	pred    *core.Predictor
	answers *core.AnswerCache
	// learner is the durable shared user profile (nil on in-memory
	// databases, whose sessions own private or manager-scoped learners).
	learner *core.Learner
}

// Open creates an empty in-memory database. Use OpenDurable for one backed
// by a page file.
func Open(opts Options) *DB {
	return assemble(opts, engine.New(baseConfig(opts)))
}

// baseConfig translates public options into the engine configuration shared
// by Open and OpenDurable.
func baseConfig(opts Options) engine.Config {
	pool := opts.BufferPoolPages
	if pool == 0 {
		pool = 46
	}
	return engine.Config{
		BufferPoolPages: pool,
		PoolShards:      opts.PoolShards,
		UseViews:        opts.UseOptionalViews,
		Fault:           opts.Fault,
	}
}

// assemble attaches the speculation subsystem to a constructed engine.
func assemble(opts Options, eng *engine.Engine) *DB {
	workers := opts.SpecWorkers
	if workers < 1 {
		workers = 1
	}
	db := &DB{eng: eng, specWorkers: workers, budgetPages: opts.SpecBudgetPages,
		ledger: core.NewLedger(eng.Metrics(), opts.SharedSpeculation)}
	if opts.Governor {
		db.gov = core.NewGovernor(eng.Pool)
		db.gov.AttachMetrics(eng.Metrics())
	}
	if opts.PredictFinals {
		db.pred = core.NewPredictor(core.DefaultPredictorConfig())
		db.answers = core.NewAnswerCache(eng.Metrics(), 0)
	}
	return db
}

// LoadTPCH populates the database with the paper's TPC-H-subset dataset at
// one of the named scales: "100MB", "500MB", or "1GB" (scaled 1/20, see
// DESIGN.md), fully prepared with indexes and histograms.
func (db *DB) LoadTPCH(scale string, seed uint64) error {
	sc, err := tpch.ScaleByName(scale)
	if err != nil {
		return err
	}
	return tpch.Load(db.eng, sc, seed)
}

// Result reports one executed statement.
type Result struct {
	// Columns names the output columns.
	Columns []string
	// Rows holds the result as Go values (int64, float64, or string).
	Rows [][]any
	// RowCount is the result cardinality.
	RowCount int64
	// Duration is the simulated execution time.
	Duration time.Duration
	// Plan is the physical plan as indented text ("" when not planned).
	Plan string
	// Analyzed is the EXPLAIN ANALYZE rendering — the plan annotated with
	// actual rows, simulated cost, and page I/O per node ("" otherwise).
	Analyzed string
}

func wrapResult(r *engine.Result) *Result {
	out := &Result{RowCount: r.RowCount, Duration: r.Duration}
	if r.Schema != nil {
		for _, c := range r.Schema.Columns {
			out.Columns = append(out.Columns, c.Name)
		}
	}
	for _, row := range r.Rows {
		vals := make([]any, len(row))
		for i, v := range row {
			switch v.Kind() {
			case tuple.KindInt, tuple.KindDate:
				vals[i] = v.Int()
			case tuple.KindFloat:
				vals[i] = v.Float()
			default:
				vals[i] = v.Str()
			}
		}
		out.Rows = append(out.Rows, vals)
	}
	if r.Plan != nil {
		out.Plan = plan.Explain(r.Plan)
	}
	out.Analyzed = r.Analyzed
	return out
}

// Exec parses and executes one SQL statement: conjunctive SELECTs,
// SELECT … INTO (materialization), CREATE INDEX, CREATE HISTOGRAM,
// DROP TABLE, and EXPLAIN.
func (db *DB) Exec(sql string) (*Result, error) {
	res, err := db.eng.Exec(sql)
	if err != nil {
		return nil, err
	}
	return wrapResult(res), nil
}

// ColdStart empties the buffer pool (a cold restart).
func (db *DB) ColdStart() error { return db.eng.ColdStart() }

// PoolStats is a snapshot of cumulative buffer-pool traffic. The pool
// guarantees Hits + Misses == Fetches.
type PoolStats struct {
	Hits    int64
	Misses  int64
	Writes  int64
	Fetches int64
	// HitRatio is Hits/Fetches (0 before any fetch).
	HitRatio float64
}

// PoolStats reports the buffer pool's traffic counters since Open.
func (db *DB) PoolStats() PoolStats {
	st := db.eng.Pool.Stats()
	return PoolStats{
		Hits:     st.Hits,
		Misses:   st.Misses,
		Writes:   st.Writes,
		Fetches:  st.Fetches,
		HitRatio: st.HitRatio(),
	}
}

// MetricsText renders every engine metric — buffer-pool traffic, statement
// counts and durations, speculation lifecycle counters, learner gauges — as a
// sorted one-metric-per-line dump (see DESIGN.md §7).
func (db *DB) MetricsText() string { return db.eng.MetricsSnapshot().Text() }

// MetricsJSON renders the same snapshot as indented JSON.
func (db *DB) MetricsJSON() ([]byte, error) { return db.eng.MetricsSnapshot().JSON() }

// Tables lists the tables currently in the catalog.
func (db *DB) Tables() []string { return db.eng.Catalog.TableNames() }

// parseValue converts a Go value into an engine value. A time.Time becomes a
// date — the days from 1970-01-01 to its calendar date in its own location,
// the form date columns store — so its clock time is ignored.
func parseValue(v any) (tuple.Value, error) {
	switch x := v.(type) {
	case time.Time:
		y, m, d := x.Date()
		return tuple.NewDate(time.Date(y, m, d, 0, 0, 0, 0, time.UTC).Unix() / 86400), nil
	case int:
		return tuple.NewInt(int64(x)), nil
	case int64:
		return tuple.NewInt(x), nil
	case float64:
		return tuple.NewFloat(x), nil
	case string:
		return tuple.NewString(x), nil
	default:
		return tuple.Value{}, fmt.Errorf("specdb: unsupported constant type %T", v)
	}
}

// simDuration converts wall-style durations to the simulated timeline.
func simDuration(d time.Duration) sim.Duration { return d }
