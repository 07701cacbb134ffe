// Package engine is the DBMS facade: it owns the disk, buffer pool, and
// catalog, executes SQL statements and bound query graphs through the
// optimizer and executor, and exposes every operation the speculation
// subsystem issues as a manipulation — materialization, index creation,
// histogram creation, and data staging.
//
// Every operation returns its simulated duration, derived from the work it
// actually performed (buffer-pool misses, write-backs, tuples processed) as
// counted on a meter of its own, so statements of different sessions may
// overlap without touching each other's numbers. How concurrent speculative
// load stretches a duration (Section 6.3 of the paper) is the speculator's
// model, not the engine's.
package engine

import (
	"fmt"
	"runtime/debug"
	"sync"

	"specdb/internal/btree"
	"specdb/internal/buffer"
	"specdb/internal/catalog"
	"specdb/internal/exec"
	"specdb/internal/fault"
	"specdb/internal/obs"
	"specdb/internal/plan"
	"specdb/internal/qgraph"
	"specdb/internal/sim"
	"specdb/internal/slab"
	"specdb/internal/sql"
	"specdb/internal/stats"
	"specdb/internal/storage"
	"specdb/internal/tuple"
)

// Config sizes a fresh engine.
type Config struct {
	// BufferPoolPages is the frame count of the buffer pool.
	BufferPoolPages int
	// PoolShards is the number of lock-striped buffer-pool shards. 0 or 1
	// means a single shard (one mutex over every frame, the configuration
	// every pinned experiment runs); higher values reduce lock contention
	// for concurrent sessions.
	PoolShards int
	// UseViews lets the optimizer consider non-forced materialized views
	// (query-materialization semantics). Forced views always apply.
	UseViews bool
	// Fault configures deterministic fault injection (DESIGN.md §8). The
	// zero value injects nothing and leaves the engine byte-identical to an
	// uninstrumented one.
	Fault fault.Config
	// Storage selects the durable page-file backend (DESIGN.md §12). The
	// zero value keeps the in-memory disk and byte-identical behavior;
	// engines with Storage.Path set must be constructed via Open, not New.
	Storage StorageConfig
}

// histogramBuckets is the bucket count of the histograms CreateHistogram
// builds.
const histogramBuckets = 20

// Result reports one executed statement.
type Result struct {
	// Rows holds query output (nil for DDL, materializations and EXPLAIN
	// ANALYZE).
	Rows []tuple.Row
	// Schema describes Rows.
	Schema *tuple.Schema
	// RowCount is the number of rows a query produced, or rows
	// materialized/indexed.
	RowCount int64
	// Work is the raw work performed.
	Work sim.Work
	// Duration is the simulated elapsed time: Work at the engine's rates.
	Duration sim.Duration
	// Plan is the physical plan, when one was produced.
	Plan plan.Node
	// Analyzed is the rendered EXPLAIN ANALYZE tree (per-node actuals);
	// set only for EXPLAIN ANALYZE statements.
	Analyzed string
}

// Engine is the database server. It is safe for concurrent sessions, and
// their queries really overlap: every entry point that executes or mutates
// runs through the one statement boundary (see statement), which holds the
// statement lock shared for the read-only ones (RunQuery, ExplainAnalyze)
// and exclusively for everything that changes the catalog, a
// heap, an index, statistics, staging or pool residency. Each statement is
// metered on a sim.Meter of its own, so what it reports never depended on who
// else was running. Planning (PlanGraph/Explain) runs lock-free at this level and
// relies on the fine-grained locks inside the catalog, buffer pool, B-trees,
// and heap files.
type Engine struct {
	Disk    storage.Disk
	Pool    *buffer.Pool
	Catalog *catalog.Catalog

	cfg Config
	// sink is the pool's resting charge target, and where the commit path's
	// own page writes go: work no statement is measured by — bulk loads,
	// drops, the FlushAll of a commit, checkpoints, ColdStart — is still
	// charged, to a meter nobody reads.
	sink *sim.Meter
	// workMemBytes is the per-join memory budget before hash joins spill to
	// disk (charged as page I/O): a quarter of the buffer pool, the classic
	// rule of thumb for the era's work-area sizing.
	workMemBytes int64

	// injector drives deterministic fault injection (nil = fault-free).
	injector *fault.Injector

	// Observability (never charges the meter; see internal/obs).
	metrics      *obs.Registry
	tracer       *obs.Tracer
	panicLog     *obs.PanicLog
	obsStmts     *obs.Counter
	obsQueries   *obs.Counter
	obsQueryRows *obs.Counter
	obsStmtDur   *obs.Histogram
	obsPanics    *obs.Counter
	obsReplans   *obs.Counter

	// stmtMu is the statement lock: shared by statements that only read,
	// exclusive for every other. Only statement locks it.
	stmtMu sync.RWMutex

	seqMu sync.Mutex
	seq   int64

	// versMu guards dataVersions: a monotonic per-table write counter the
	// answer cache uses for invalidation (DESIGN.md §14). Every table-mutating
	// statement bumps its table's version; a cached answer captures the
	// versions of the relations it read and is served only while all of them
	// still match. Versions never feed back into planning or measurement.
	versMu       sync.Mutex
	dataVersions map[string]uint64

	// Durable-mode state (see durable.go); all nil/zero on in-memory
	// engines, which commit nothing.
	fileDisk           *storage.FileDisk
	durMu              sync.Mutex
	appliedSeq         int64
	lastProfile        []byte
	profileSrc         func() ([]byte, error)
	recoveredProfile   []byte
	recoveredOrphans   int
	obsCommits         *obs.Counter
	obsCheckpointPages *obs.Counter
}

// New constructs an empty in-memory engine. Use Open for a durable one.
func New(cfg Config) *Engine { return build(cfg, nil) }

// build assembles an engine over base (nil means a fresh in-memory
// DiskManager). It is shared by New and the durable Open path.
func build(cfg Config, base storage.Disk) *Engine {
	if cfg.BufferPoolPages < 2 {
		cfg.BufferPoolPages = 64
	}
	inj := fault.NewInjector(cfg.Fault) // nil when cfg.Fault injects nothing
	if base == nil {
		base = storage.NewDiskManager(0)
	}
	disk := fault.WrapDisk(base, inj)
	sink := sim.NewMeter()
	if cfg.PoolShards < 1 {
		cfg.PoolShards = 1
	}
	pool := buffer.NewShardedPool(disk, cfg.BufferPoolPages, cfg.PoolShards, sink)
	pool.SetFaultInjector(inj)
	e := &Engine{
		Disk:         disk,
		Pool:         pool,
		Catalog:      catalog.New(pool),
		cfg:          cfg,
		sink:         sink,
		workMemBytes: int64(cfg.BufferPoolPages) * int64(disk.PageSize()) / 4,
		injector:     inj,
		dataVersions: make(map[string]uint64),
		metrics:      obs.NewRegistry(),
		tracer:       obs.NewTracer(0),
		panicLog:     obs.NewPanicLog(0),
	}
	pool.AttachMetrics(e.metrics)
	inj.AttachMetrics(e.metrics)
	e.obsStmts = e.metrics.Counter("engine.statements")
	e.obsQueries = e.metrics.Counter("engine.queries")
	e.obsQueryRows = e.metrics.Counter("engine.query.rows")
	e.obsStmtDur = e.metrics.Histogram("engine.statement.duration_ns", statementDurationBounds)
	e.obsPanics = e.metrics.Counter("recovered_panics")
	e.obsReplans = e.metrics.Counter("engine.replans")
	return e
}

// FaultInjector exposes the engine's injector (nil on fault-free engines).
func (e *Engine) FaultInjector() *fault.Injector { return e.injector }

// PanicLog exposes the recovered-panic ring for diagnostics and tests.
func (e *Engine) PanicLog() *obs.PanicLog { return e.panicLog }

// RecordPanic converts a recovered panic value into an error, counting it
// under the recovered_panics metric and capturing the stack. Sessions call
// it from their own recovery boundaries; the engine's own boundary is
// statement.
func (e *Engine) RecordPanic(op string, v any) error {
	e.panicLog.Record(op, v, debug.Stack())
	e.obsPanics.Inc()
	return fmt.Errorf("engine: internal error in %s: %v", op, v)
}

// recoverTo is deferred by statement, and by Exec for the parsing and binding
// it does before reaching one: an internal bug (panic) becomes a returned
// error with its stack preserved in the panic log, instead of killing every
// session sharing the engine.
func (e *Engine) recoverTo(op string, err *error) {
	if r := recover(); r != nil {
		*err = e.RecordPanic(op, r)
	}
}

// Rates reports the engine's cost rates: what converts work counters to
// simulated time.
func (e *Engine) Rates() sim.CostRates { return sim.DefaultRates() }

// bumpDataVersion advances name's data version after a table-mutating
// statement, invalidating any cached answer that read the table.
func (e *Engine) bumpDataVersion(name string) {
	e.versMu.Lock()
	defer e.versMu.Unlock()
	e.dataVersions[name]++
}

// DataVersion reports name's current data version (0 for a never-written
// table). The answer cache compares captured versions against this.
func (e *Engine) DataVersion(name string) uint64 {
	e.versMu.Lock()
	defer e.versMu.Unlock()
	return e.dataVersions[name]
}

// DataVersions snapshots the data versions of the named relations, for an
// answer-cache entry capturing what it read.
func (e *Engine) DataVersions(rels []string) map[string]uint64 {
	e.versMu.Lock()
	defer e.versMu.Unlock()
	out := make(map[string]uint64, len(rels))
	for _, r := range rels {
		out[r] = e.dataVersions[r]
	}
	return out
}

// planOptions builds the optimizer options.
func (e *Engine) planOptions() plan.Options {
	return plan.Options{Rates: e.Rates(), UseViews: e.cfg.UseViews, WorkMemBytes: e.workMemBytes}
}

// stmt is what the boundary hands a statement body: the statement's own meter
// and the buffer pool as seen through it.
type stmt struct {
	meter sim.Meter
	pool  buffer.View
}

// execContext builds an executor context for st: tuples and the page misses
// of its scans are charged to st's meter, with the engine's work-memory
// budget.
func (e *Engine) execContext(st *stmt) *exec.Context {
	return &exec.Context{Meter: &st.meter, Pool: &st.pool, WorkMemBytes: e.workMemBytes}
}

// effect is what a statement does to shared state: it decides how the
// boundary locks and what it seals after a successful body. The lock mode is
// part of the effect rather than derived from "commits nothing": staging
// commits nothing and still may not run beside a reader.
type effect uint8

const (
	// readsOnly changes nothing anybody else can see: queries. Shared lock,
	// no commit.
	readsOnly effect = iota
	// changesResidency changes what the pool holds or pins — staging,
	// ColdStart — and nothing durable. Exclusive lock (Stage's budget is a
	// check-then-act on the pool, EvictAll needs every page unpinned), no
	// commit.
	changesResidency
	// changesShape commits the named table: its indexes, statistics or (for a
	// materialization) its whole definition changed. Exclusive lock.
	changesShape
	// changesData commits the named table and then bumps its data version:
	// its rows or its existence changed, so cached answers that read it are
	// stale. Exclusive lock.
	changesData
)

// statement is the engine's one statement boundary: every entry point that
// executes or mutates, measured or not, runs its body through it, and it alone
// spells what "one statement" means.
//
//   - Metered on its own: the body gets a fresh stmt — a meter nobody else
//     charges and a view of the pool that charges it. A readsOnly body does
//     all its I/O through that view (exec.Context carries it), so its work is
//     its own however many statements overlap. Every other body is alone in
//     the pool while it runs, and readers never use the pool's default charge
//     target, so the boundary points that default at the statement's meter
//     for the body's duration: the heap, index and staging write paths reach
//     the meter without each growing a pool argument. Before the commit the
//     default is back on the engine's sink, which is where a commit's FlushAll
//     and all unmeasured work between statements is charged.
//   - Locked by effect: readsOnly holds stmtMu shared, everything else
//     exclusively, so a drop cannot invalidate a plan between optimization
//     and execution, and a write's body, commit and version bump exclude
//     every reader (DESIGN.md §14). No body may enter another statement: a
//     second RLock behind a waiting writer deadlocks, as a second Lock always
//     did. speclint's lockorder rule proves none does (lockedCallbacks in
//     internal/lint/lockorder_manifest.go lists this function).
//   - Recoverable: a panic in the body or the commit becomes a returned
//     "internal error" recorded in the panic log under op; nothing is
//     committed or bumped, and the lock is released.
//   - Committed, then versioned: after a successful body the effect decides.
//     commitStmt is a no-op on in-memory engines and for the volatile
//     namespace; the data version moves only once the commit succeeded.
func (e *Engine) statement(op, table string, eff effect, body func(st *stmt) error) (err error) {
	st := &stmt{}
	st.pool = e.Pool.View(&st.meter)
	if eff == readsOnly {
		e.stmtMu.RLock()
		defer e.stmtMu.RUnlock()
	} else {
		e.stmtMu.Lock()
		defer e.stmtMu.Unlock()
	}
	defer e.recoverTo(op, &err)
	if eff == readsOnly {
		return body(st)
	}
	if err := e.alone(st, body); err != nil || eff == changesResidency {
		return err
	}
	if err := e.commitStmt(table); err != nil {
		return err
	}
	if eff == changesData {
		e.bumpDataVersion(table)
	}
	return nil
}

// alone runs an exclusive statement's body with the pool's default charge
// target on the statement's meter, and puts it back on the sink whichever way
// the body ends.
func (e *Engine) alone(st *stmt, body func(st *stmt) error) error {
	e.Pool.ChargeTo(&st.meter)
	defer e.Pool.ChargeTo(e.sink)
	return body(st)
}

// measured is the statement that reports a Result: body fills res, timing its
// work inside one measure window. A failed (or panicked) statement returns no
// partial result.
func (e *Engine) measured(op, table string, eff effect, body func(st *stmt, res *Result) error) (*Result, error) {
	res := &Result{}
	if err := e.statement(op, table, eff, func(st *stmt) error { return body(st, res) }); err != nil {
		return nil, err
	}
	return res, nil
}

// mutate is the unmeasured statement on an existing table — loading, dropping
// and statistics upkeep are setup, not workload, so nothing is timed and the
// statement's meter is never read.
func (e *Engine) mutate(op, table string, eff effect, body func(t *catalog.Table) error) error {
	return e.statement(op, table, eff, func(*stmt) error {
		t, err := e.Catalog.Table(table)
		if err != nil {
			return err
		}
		return body(t)
	})
}

// measure is one measure window, the engine's only accounting path: it runs
// fn and, when fn succeeds, records in res the work st's meter gained
// meanwhile and its duration at the engine's rates. The meter is the
// statement's own, so the delta is fn's work by construction; it is a delta
// (not the meter's total) because a statement may open a second window after
// a failed first one.
func (e *Engine) measure(st *stmt, res *Result, fn func() error) error {
	before := st.meter.Snapshot()
	if err := fn(); err != nil {
		return err
	}
	res.Work = st.meter.Since(before)
	res.Duration = res.Work.Cost(e.Rates())
	e.obsStmts.Inc()
	e.obsStmtDur.Observe(int64(res.Duration))
	return nil
}

// Exec parses and executes one SQL statement.
func (e *Engine) Exec(src string) (res *Result, err error) {
	defer e.recoverTo("Exec", &err)
	stmt, err := sql.Parse(src)
	if err != nil {
		return nil, err
	}
	switch s := stmt.(type) {
	case *sql.SelectStmt:
		q, err := plan.Bind(e.Catalog, s)
		if err != nil {
			return nil, err
		}
		if s.Into != "" {
			return e.materializeQuery(s.Into, q, q.Graph, false)
		}
		return e.RunQuery(q)
	case *sql.ExplainStmt:
		q, err := plan.Bind(e.Catalog, s.Query)
		if err != nil {
			return nil, err
		}
		if s.Analyze {
			return e.ExplainAnalyze(q)
		}
		node, err := plan.Optimize(e.Catalog, q, e.planOptions())
		if err != nil {
			return nil, err
		}
		return &Result{Plan: node, Schema: node.Schema()}, nil
	case *sql.CreateIndexStmt:
		return e.CreateIndex(s.Table, s.Column)
	case *sql.CreateHistogramStmt:
		return e.CreateHistogram(s.Table, s.Column)
	case *sql.DropTableStmt:
		if err := e.DropTable(s.Name); err != nil {
			return nil, err
		}
		return &Result{}, nil
	default:
		return nil, fmt.Errorf("engine: unsupported statement %T", stmt)
	}
}

// RunQuery optimizes and executes a bound query, returning its rows. The
// statement lock is held (shared: queries overlap each other, not writers)
// across optimization AND execution, so a concurrent DropTable cannot
// invalidate the chosen plan before it runs.
//
// Graceful degradation (DESIGN.md §8): if execution fails and the chosen plan
// read any derived object — a materialized view's backing table or an index —
// the query is transparently replanned against base tables with sequential
// access only and retried once. Speculative objects are an accelerator, never
// a correctness dependency, so a corrupted or vanished view must not fail the
// user's query. The original error surfaces only if the degraded plan fails
// too (or none of the plan was derived).
func (e *Engine) RunQuery(q *plan.Query) (*Result, error) {
	return e.measured("RunQuery", "", readsOnly, func(st *stmt, res *Result) error {
		node, err := e.planAndRun(st, res, q, e.planOptions(), nil, true)
		if err == nil || node == nil || !e.planReadsDerived(node) {
			return err
		}
		opts := e.planOptions()
		opts.AvoidViews, opts.AvoidIndexes = true, true
		degraded, replanErr := e.planAndRun(st, res, q, opts, nil, true)
		if degraded != nil {
			e.obsReplans.Inc()
		}
		if replanErr != nil {
			return err // surface the original failure
		}
		return nil
	})
}

// planAndRun is the body RunQuery and ExplainAnalyze share:
// optimize q under opts, then build and drain the plan in one measure window,
// leaving a fresh Result in res (a failed earlier attempt is not charged to
// this one). With a profiler the operators are instrumented. collect keeps the
// rows in res.Rows; otherwise they are only counted, which reads and charges
// exactly the same. The chosen plan is returned whenever planning succeeded,
// so the caller can tell a plan that failed to run from a query that failed
// to plan.
func (e *Engine) planAndRun(st *stmt, res *Result, q *plan.Query, opts plan.Options, prof *exec.Profiler, collect bool) (plan.Node, error) {
	node, err := plan.Optimize(e.Catalog, q, opts)
	if err != nil {
		return nil, err
	}
	ctx := e.execContext(st)
	if prof != nil {
		prof.Attach(ctx) // before the window: attaching charges nothing
	}
	*res = Result{Plan: node, Schema: node.Schema()}
	err = e.measure(st, res, func() error {
		it, err := node.Build(ctx)
		if err != nil {
			return err
		}
		if !collect {
			res.RowCount, err = exec.Count(it)
			return err
		}
		res.Rows, err = exec.Collect(it)
		res.RowCount = int64(len(res.Rows))
		return err
	})
	if err != nil {
		return node, err
	}
	e.obsQueries.Inc()
	e.obsQueryRows.Add(res.RowCount)
	return node, nil
}

// planReadsDerived reports whether node reads anything beyond plain
// sequential scans of base tables: a materialized view's backing table or an
// index access path (including the inner side of an index nested-loop join).
func (e *Engine) planReadsDerived(node plan.Node) bool {
	derived := false
	plan.Walk(node, func(n plan.Node) {
		if a, ok := n.(*plan.TableAccess); ok {
			if a.Method == plan.AccessIndex || e.Catalog.View(a.Table.Name) != nil {
				derived = true
			}
		}
	})
	return derived
}

// ExplainAnalyze optimizes and executes a bound query with instrumented
// operators, returning the rendered plan with per-node actuals in
// Result.Analyzed. The query's rows are drained (and counted) but not
// returned — the plan tree is the output. Execution is measured exactly like
// RunQuery: the profiler only snapshots the statement's meter, it never
// charges it, so an EXPLAIN ANALYZE costs the same simulated time as the bare
// query, and its per-node actuals are this statement's whoever else runs.
func (e *Engine) ExplainAnalyze(q *plan.Query) (*Result, error) {
	return e.measured("ExplainAnalyze", "", readsOnly, func(st *stmt, res *Result) error {
		prof := exec.NewProfiler()
		node, err := e.planAndRun(st, res, q, e.planOptions(), prof, false)
		if err != nil {
			return err
		}
		res.Analyzed = plan.ExplainAnalyze(node, prof, e.Rates())
		return nil
	})
}

// PlanGraph optimizes a query graph without executing it (the speculation
// cost model calls this to price alternatives).
func (e *Engine) PlanGraph(g *qgraph.Graph) (plan.Node, error) {
	q, err := plan.BindGraph(e.Catalog, g)
	if err != nil {
		return nil, err
	}
	return plan.Optimize(e.Catalog, q, e.planOptions())
}

// Materialize executes graph g and stores the result as a new table
// registered as a materialized view of g. forced selects query-rewriting
// semantics (the optimizer MUST use it) versus query-materialization (an
// option). The duration covers execution, storage writes, and the analyze
// pass that gives the view statistics.
func (e *Engine) Materialize(name string, g *qgraph.Graph, forced bool) (*Result, error) {
	q, err := plan.BindGraph(e.Catalog, g)
	if err != nil {
		return nil, err
	}
	return e.materializeQuery(name, q, g, forced)
}

func (e *Engine) materializeQuery(name string, q *plan.Query, g *qgraph.Graph, forced bool) (*Result, error) {
	return e.measured("Materialize", name, changesShape, func(st *stmt, res *Result) error {
		if e.Catalog.HasTable(name) {
			return fmt.Errorf("engine: table %q already exists", name)
		}
		node, err := plan.Optimize(e.Catalog, q, e.planOptions())
		if err != nil {
			return err
		}
		res.Plan, res.Schema = node, node.Schema()
		return e.measure(st, res, func() error {
			// The iterator is built before the table exists, and everything
			// after the table exists is covered by one cleanup: a failed drain
			// or registration, or a panic on its way to the statement boundary,
			// leaves no table behind under a name FreshName never hands out
			// again.
			it, err := node.Build(e.execContext(st))
			if err != nil {
				return err
			}
			table, err := e.Catalog.CreateTable(name, node.Schema())
			if err != nil {
				return err
			}
			registered := false
			defer func() {
				if !registered {
					_ = e.Catalog.DropTable(name) // best effort: the statement's own failure is what is reported
				}
			}()
			// Statistics are collected from the stream as it is written, the
			// way a real engine piggybacks stats on CREATE TABLE AS SELECT: each
			// value goes to its column's collector and is not kept — no second
			// scan and no buffered copy of the view. The collectors' sets go
			// back to their slab on every path; on success the table's stats
			// have copied out their numbers first.
			cols := make([]stats.Collector, table.Schema.Len())
			defer func() {
				for i := range cols {
					cols[i].Release()
				}
			}()
			var buf []byte
			var n int64
			err = exec.Drain(it, func(r tuple.Row) error {
				buf, err = tuple.EncodeRow(buf[:0], table.Schema, r)
				if err != nil {
					return err
				}
				if _, err := table.Heap.Insert(buf); err != nil {
					return err
				}
				for i, v := range r {
					cols[i].Add(v)
				}
				n++
				return nil
			})
			if err != nil {
				return err
			}
			res.RowCount = n
			for i, c := range table.Schema.Columns {
				table.SetColumnStats(c.Name, cols[i].Stats())
			}
			st.meter.ChargeTuples(n) // the stats pass over the stream
			if err := e.Catalog.RegisterView(name, g, forced); err != nil {
				return err
			}
			registered = true
			return nil
		})
	})
}

// FreshName generates a unique table name for speculative materializations.
func (e *Engine) FreshName(prefix string) string {
	e.seqMu.Lock()
	defer e.seqMu.Unlock()
	e.seq++
	return fmt.Sprintf("%s_%d", prefix, e.seq)
}

// CreateIndex builds a B+-tree index on table.column by scanning the table.
func (e *Engine) CreateIndex(table, column string) (*Result, error) {
	return e.measured("CreateIndex", table, changesShape, func(st *stmt, res *Result) error {
		t, err := e.Catalog.Table(table)
		if err != nil {
			return err
		}
		ord := t.Schema.Ordinal(column)
		if ord < 0 {
			return fmt.Errorf("engine: table %q has no column %q", table, column)
		}
		if t.Index(column) != nil {
			return fmt.Errorf("engine: index on %s.%s already exists", table, column)
		}
		return e.measure(st, res, func() error {
			tree, err := btree.New(e.Pool, e.Disk.PageSize())
			if err != nil {
				return err
			}
			// The sort input lives only for the build: the entries and the key
			// chunks they point into come from slabs and go back on every
			// path once BulkLoad, which copies each key into a page and keeps
			// none, has returned.
			rows := int(t.RowCount())
			entries := entrySlabs.Take(max(rows, 1))[:0]
			keys := keyChunks{next: 8 * rows}
			defer func() {
				entrySlabs.Give(entries)
				keys.release()
			}()
			err = t.Heap.Scan(func(rid storage.RID, rec []byte) error {
				// Only the key column is decoded; a string aliases the record,
				// and keys.encode copies it.
				v, _, err := tuple.DecodeColumn(rec, t.Schema, ord)
				if err != nil {
					return err
				}
				st.meter.ChargeTuples(1)
				entries = append(entries, btree.Entry{Key: keys.encode(v), RID: rid})
				res.RowCount++
				return nil
			})
			if err != nil {
				_ = tree.Drop()
				return err
			}
			btree.SortEntries(entries)
			st.meter.ChargeTuples(int64(len(entries))) // sort pass
			if err := tree.BulkLoad(entries); err != nil {
				_ = tree.Drop()
				return err
			}
			_, err = e.Catalog.AddIndex(table, column, tree)
			return err
		})
	})
}

// entrySlabs recycles CreateIndex's sort input.
var entrySlabs slab.Classes[btree.Entry]

// keyChunks carves index keys out of chunks from slab.Bytes, back to back, so
// a build allocates no key of its own. A key never moves once carved, so a
// full chunk is kept until release and the next is taken twice as large.
type keyChunks struct {
	cur  []byte   // the chunk keys are carved from
	full [][]byte // chunks with no room left
	next int      // size of the next chunk to take
}

// encode appends v's key to the chunks and returns it, capacity clipped.
func (k *keyChunks) encode(v tuple.Value) []byte {
	if n := tuple.KeySize(v); cap(k.cur)-len(k.cur) < n {
		if k.cur != nil {
			k.full = append(k.full, k.cur)
		}
		k.cur = slab.Bytes.Take(max(k.next, n))[:0]
		k.next = 2 * cap(k.cur)
	}
	start := len(k.cur)
	k.cur = tuple.EncodeKey(k.cur, v)
	return k.cur[start:len(k.cur):len(k.cur)]
}

// release gives every chunk back; no key carved from them may be read
// afterwards.
func (k *keyChunks) release() {
	for _, c := range k.full {
		slab.Bytes.Give(c)
	}
	slab.Bytes.Give(k.cur)
	*k = keyChunks{}
}

// DropIndex removes the index on table.column, freeing its pages.
func (e *Engine) DropIndex(table, column string) error {
	return e.mutate("DropIndex", table, changesShape, func(t *catalog.Table) error {
		idx := t.Index(column)
		if idx == nil {
			return fmt.Errorf("engine: no index on %s.%s", table, column)
		}
		return dropIndex(t, idx)
	})
}

// DropDetachedIndex frees the pages of an index its table does not, or no
// longer does, know about — a speculative build hidden until completion and
// then canceled. The table may be gone by then.
func (e *Engine) DropDetachedIndex(idx *catalog.Index) error {
	return e.statement("DropDetachedIndex", idx.Table, changesShape, func(*stmt) error {
		return dropIndex(nil, idx)
	})
}

// dropIndex frees idx's pages and takes it off the table it is installed on
// (nil: none).
func dropIndex(on *catalog.Table, idx *catalog.Index) error {
	if err := idx.Tree.Drop(); err != nil {
		return err
	}
	if on != nil {
		on.RemoveIndex(idx.Column)
	}
	return nil
}

// CreateHistogram builds an equi-depth histogram on table.column, improving
// the optimizer's selectivity estimates (Section 3.2: histogram creation).
func (e *Engine) CreateHistogram(table, column string) (*Result, error) {
	return e.measured("CreateHistogram", table, changesShape, func(st *stmt, res *Result) error {
		t, err := e.Catalog.Table(table)
		if err != nil {
			return err
		}
		return e.measure(st, res, func() error {
			values, err := catalog.ColumnValues(t, column)
			if err != nil {
				return err
			}
			st.meter.ChargeTuples(int64(len(values)))
			h, err := stats.BuildHistogram(values, histogramBuckets)
			if err != nil {
				return err
			}
			cs := t.ColumnStats(column)
			if cs == nil {
				cs = stats.CollectColumnStats(values)
				t.SetColumnStats(column, cs)
			}
			cs.SetHist(h)
			res.RowCount = int64(len(values))
			return nil
		})
	})
}

// DropHistogram removes the histogram on table.column.
func (e *Engine) DropHistogram(table, column string) error {
	return e.mutate("DropHistogram", table, changesShape, func(t *catalog.Table) error {
		if cs := t.ColumnStats(column); cs != nil {
			cs.SetHist(nil)
		}
		return nil
	})
}

// Stage pre-fetches and pins a table's heap pages in the buffer pool: the
// data-staging manipulation (Section 3.2), implementable here because we own
// the buffer pool. Staging at most half the pool is allowed, to leave room
// for query execution; the budget is read and then spent, which is one reason
// staging holds the statement lock exclusively though it commits nothing.
func (e *Engine) Stage(table string) (*Result, error) {
	return e.measured("Stage", table, changesResidency, func(st *stmt, res *Result) error {
		t, err := e.Catalog.Table(table)
		if err != nil {
			return err
		}
		return e.measure(st, res, func() error {
			// The staging budget is half the pool ACROSS ALL staged tables —
			// otherwise repeated staging pins the whole pool and starves query
			// execution of frames.
			budget := e.Pool.Capacity()/2 - e.Pool.StagedCount()
			for _, id := range t.Heap.PageIDs() {
				if budget <= 0 {
					break
				}
				if err := e.Pool.Stage(id); err != nil {
					return err
				}
				res.RowCount++
				budget--
			}
			return nil
		})
	})
}

// Unstage releases a table's staged pages.
func (e *Engine) Unstage(table string) error {
	return e.mutate("Unstage", table, changesResidency, func(t *catalog.Table) error {
		for _, id := range t.Heap.PageIDs() {
			e.Pool.Unstage(id)
		}
		return nil
	})
}

// DropTable removes a table (and any view it backs), freeing storage. Going
// through the statement boundary means a drop never races an executing query
// that planned against the table.
func (e *Engine) DropTable(name string) error {
	return e.mutate("DropTable", name, changesData, func(t *catalog.Table) error {
		for _, id := range t.Heap.PageIDs() {
			e.Pool.Unstage(id) // staged pages must not block the free
		}
		return e.Catalog.DropTable(name)
	})
}

// CreateTable registers an empty base table (bulk-load path).
func (e *Engine) CreateTable(name string, schema *tuple.Schema) (*catalog.Table, error) {
	var t *catalog.Table
	err := e.statement("CreateTable", name, changesData, func(*stmt) (err error) {
		t, err = e.Catalog.CreateTable(name, schema)
		return err
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// InsertRows bulk-inserts rows into a table (no per-statement measurement —
// loading is setup, not workload).
func (e *Engine) InsertRows(name string, rows []tuple.Row) error {
	return e.mutate("InsertRows", name, changesData, func(t *catalog.Table) error {
		var buf []byte
		var err error
		for _, r := range rows {
			if buf, err = tuple.EncodeRow(buf[:0], t.Schema, r); err != nil {
				return err
			}
			if _, err := t.Heap.Insert(buf); err != nil {
				return err
			}
		}
		return nil
	})
}

// Analyze recomputes statistics for a table.
func (e *Engine) Analyze(name string) error {
	return e.mutate("Analyze", name, changesShape, catalog.Analyze)
}

// ColdStart flushes and empties the buffer pool, simulating the paper's
// cold-buffer-pool experimental setup. It is a statement — exclusive, so it
// waits for running queries instead of tripping over their pins, and
// unmeasured.
func (e *Engine) ColdStart() error {
	return e.statement("ColdStart", "", changesResidency, func(*stmt) error { return e.Pool.EvictAll() })
}

// TotalDataPages reports the pages held by all tables (a sizing diagnostic).
// A table dropped by another session between the name listing and the lookup
// has no pages left to count and is skipped.
func (e *Engine) TotalDataPages() int {
	total := 0
	for _, name := range e.Catalog.TableNames() {
		t, err := e.Catalog.Table(name)
		if err != nil {
			continue
		}
		total += t.NumPages()
	}
	return total
}
