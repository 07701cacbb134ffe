// Package harness replays user traces against the engine under the paper's
// processing modes — normal, speculative, materialized views, and their
// combination — on the simulated timeline, and computes the evaluation's
// improvement metric, bucketed exactly as Section 6 presents it.
package harness

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strings"

	"specdb/internal/core"
	"specdb/internal/engine"
	"specdb/internal/fault"
	"specdb/internal/plan"
	"specdb/internal/qgraph"
	"specdb/internal/sim"
	"specdb/internal/tpch"
	"specdb/internal/trace"
	"specdb/internal/tuple"
)

// PoolPages32MB is the paper's 32 MB buffer pool, scaled to preserve the
// paper's data:pool ratios against this repository's (narrower-row) datasets:
// the "100MB" dataset is 145 heap pages, and 100 MB / 32 MB ≈ 3.1, so the
// pool gets 46 pages — which makes the "500MB" and "1GB" ratios ≈ 16 and
// ≈ 33, matching the paper's 15.6 and 31.
const PoolPages32MB = 46

// PoolPages96MB is the multi-user experiment's scaled-up pool (Section 6.3).
const PoolPages96MB = 138

// Env is a loaded experimental environment: one engine with one dataset.
type Env struct {
	Eng   *engine.Engine
	Scale tpch.Scale
	// Views lists pre-materialized view names (Figure 6 modes).
	Views []string
}

// EnvConfig sizes an environment.
type EnvConfig struct {
	Scale           tpch.Scale
	Seed            uint64
	BufferPoolPages int
	// PoolShards is the buffer pool's lock-stripe count (0 or 1: a single
	// shard, which every pinned experiment runs).
	PoolShards int
	// PrematerializeViews builds the join of every connected subset of the
	// relations (all attributes) as optional views — the paper's extreme
	// pro-views configuration (Section 6.2) — and lets the optimizer
	// consider them.
	PrematerializeViews bool
	// Fault configures deterministic fault injection (zero value: none).
	// Faults are enabled only after the dataset loads, so every environment
	// starts from identical on-disk state regardless of fault rates.
	Fault fault.Config
}

// NewEnv loads a dataset (and optionally the view battery) into a fresh
// engine with a cold buffer pool.
func NewEnv(cfg EnvConfig) (*Env, error) {
	if cfg.BufferPoolPages == 0 {
		cfg.BufferPoolPages = PoolPages32MB
	}
	eng := engine.New(engine.Config{
		BufferPoolPages: cfg.BufferPoolPages,
		PoolShards:      cfg.PoolShards,
		UseViews:        cfg.PrematerializeViews,
		Fault:           cfg.Fault,
	})
	// Hold faults until the environment is fully built, so every fault rate
	// starts the measured workload from the same prepared database.
	eng.FaultInjector().SetArmed(false)
	defer eng.FaultInjector().SetArmed(true)
	if err := tpch.Load(eng, cfg.Scale, cfg.Seed); err != nil {
		return nil, err
	}
	env := &Env{Eng: eng, Scale: cfg.Scale}
	if cfg.PrematerializeViews {
		names, err := prematerializeViews(eng)
		if err != nil {
			return nil, err
		}
		env.Views = names
	}
	if err := eng.ColdStart(); err != nil {
		return nil, err
	}
	return env, nil
}

// shortRel abbreviates relation names for view naming.
var shortRel = map[string]string{
	"customer": "cust", "lineitem": "li", "orders": "ord",
	"part": "part", "partsupp": "ps", "supplier": "supp",
}

// prematerializeViews builds the join of each connected subset (size ≥ 2) of
// the six relations, keeping all attributes, registered as optional views.
func prematerializeViews(eng *engine.Engine) ([]string, error) {
	rels := []string{"customer", "lineitem", "orders", "part", "partsupp", "supplier"}
	edges := tpch.JoinEdges()
	var names []string
	for mask := 1; mask < 1<<len(rels); mask++ {
		subset := map[string]bool{}
		count := 0
		for i, r := range rels {
			if mask>>i&1 == 1 {
				subset[r] = true
				count++
			}
		}
		if count < 2 {
			continue
		}
		g := qgraph.New()
		for r := range subset {
			g.AddRelation(r)
		}
		for _, j := range edges {
			if subset[j.LeftRel] && subset[j.RightRel] {
				g.AddJoin(j)
			}
		}
		if !g.IsConnected() {
			continue
		}
		var parts []string
		for _, r := range rels {
			if subset[r] {
				parts = append(parts, shortRel[r])
			}
		}
		name := "mv_" + strings.Join(parts, "_")
		if _, err := eng.Materialize(name, g, false); err != nil {
			return nil, fmt.Errorf("harness: prematerializing %s: %w", name, err)
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// QueryTiming records one executed final query.
type QueryTiming struct {
	TraceIdx int
	QueryIdx int
	Seconds  float64
	Rows     int64
	// RowsKey is an order-insensitive fingerprint of the result row-set (see
	// RowSetKey); equal keys mean equal result multisets regardless of the
	// physical plan, speculation mode, or pool sharding that produced them.
	RowsKey uint64
}

// RowSetKey fingerprints a query result as a multiset: each row is hashed
// independently (FNV-1a over kind-tagged column values) and the per-row
// hashes are combined by addition, so row order is irrelevant. The row count
// is folded in so the empty set and a hash-summing-to-zero set differ.
func RowSetKey(rows []tuple.Row) uint64 {
	var sum uint64
	var buf [8]byte
	for _, r := range rows {
		h := fnv.New64a()
		for _, v := range r {
			h.Write([]byte{byte(v.Kind)})
			switch v.Kind {
			case tuple.KindFloat:
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v.Float()))
				h.Write(buf[:])
			case tuple.KindString:
				h.Write([]byte(v.Str()))
			default:
				binary.LittleEndian.PutUint64(buf[:], uint64(v.Int()))
				h.Write(buf[:])
			}
		}
		sum += h.Sum64()
	}
	return sum + uint64(len(rows))*0x9e3779b97f4a7c15
}

// RunTraceNormal replays a trace without speculation: each final query runs
// at its GO time. The pool starts cold (the paper's setup). It is the one-user
// case of RunMultiUserNormal, its timings labelled traceIdx.
func RunTraceNormal(eng *engine.Engine, traceIdx int, tr *trace.Trace) ([]QueryTiming, error) {
	timings, err := RunMultiUserNormal(eng, []*trace.Trace{tr})
	return labelled(timings, traceIdx), err
}

// labelled names the trace a one-user replay's timings belong to.
func labelled(timings []QueryTiming, traceIdx int) []QueryTiming {
	for i := range timings {
		timings[i].TraceIdx = traceIdx
	}
	return timings
}

// SpecOutcome reports a speculative replay.
type SpecOutcome struct {
	Timings []QueryTiming
	Stats   core.Stats
	// FinalStats is the post-Shutdown snapshot: outstanding jobs are canceled
	// on close, so the predicted-job quiesce identity
	// (PredictedIssued == PredictedCompleted + PredictedCanceled) holds here,
	// not necessarily in Stats.
	FinalStats core.Stats
	// WasteLedger is the speculator's per-build waste-charge counts after
	// Shutdown (core.Speculator.WasteCharges), for the charged-once invariant.
	WasteLedger map[string]int
}

// RunTraceSpeculative replays a trace through the speculation subsystem:
// interface events drive the Speculator; asynchronous manipulations complete
// on the simulated timeline; GO events execute the (possibly rewritten)
// final query. The pool starts cold.
func RunTraceSpeculative(eng *engine.Engine, traceIdx int, tr *trace.Trace, cfg core.Config) (*SpecOutcome, error) {
	cfg.NamePrefix = fmt.Sprintf("spec_t%d", traceIdx)
	return RunTraceWithLearner(eng, traceIdx, tr, cfg, core.NewLearner(core.DefaultLearnerConfig()))
}

// RunTraceWithLearner is RunTraceSpeculative with the learner (and
// cfg.NamePrefix) supplied by the caller, so replays can share a profile — and
// a predictor — across traces and passes (RunPredictBench).
func RunTraceWithLearner(eng *engine.Engine, traceIdx int, tr *trace.Trace, cfg core.Config, learner *core.Learner) (*SpecOutcome, error) {
	if err := eng.ColdStart(); err != nil {
		return nil, err
	}
	return replayTrace(eng, traceIdx, tr, cfg, learner)
}

// replayTrace is RunTraceWithLearner on the pool as it is.
func replayTrace(eng *engine.Engine, traceIdx int, tr *trace.Trace, cfg core.Config, learner *core.Learner) (*SpecOutcome, error) {
	sp := core.NewSpeculator(eng, learner, cfg)
	timings, err := replayOne(sp, traceIdx, tr)
	if err != nil {
		return nil, err
	}
	out := &SpecOutcome{Timings: timings, Stats: sp.Stats()}
	if err := sp.Shutdown(); err != nil {
		return nil, err
	}
	out.FinalStats = sp.Stats()
	out.WasteLedger = sp.WasteCharges()
	return out, nil
}

// replay is the one speculative replay loop: user u's trace drives sps[u], and
// the events of all users interleave by timestamp (stable by user for
// determinism). Before each event every speculator advances to the event's
// instant, completing the manipulations due by then. It returns one timing per
// GO, in event order, TraceIdx naming the user. Cold start, configuration and
// Shutdown stay with the caller.
func replay(sps []*core.Speculator, traces []*trace.Trace) ([]QueryTiming, error) {
	type tagged struct {
		user int
		ev   trace.Event
	}
	var all []tagged
	for u, tr := range traces {
		for _, ev := range tr.Events {
			all = append(all, tagged{user: u, ev: ev})
		}
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].ev.AtSeconds != all[j].ev.AtSeconds {
			return all[i].ev.AtSeconds < all[j].ev.AtSeconds
		}
		return all[i].user < all[j].user
	})

	// Under the contention model (core.Config.ContentionFactor) a build sees
	// every job in flight in the speculators' shared ledger but its own, and a
	// GO every one in flight once its GO policy has acted (runMultiUser
	// cancels them): each user's statements are stretched by the other users'
	// work.
	var timings []QueryTiming
	queries := make([]int, len(sps))
	for _, item := range all {
		at := item.ev.At()
		for _, sp := range sps {
			if err := sp.Advance(at); err != nil {
				return nil, err
			}
		}
		sp := sps[item.user]
		if item.ev.Kind != trace.EvGo {
			if _, err := sp.OnEvent(item.ev, at); err != nil {
				return nil, err
			}
			continue
		}
		res, _, err := sp.OnGo(at)
		if err != nil {
			return nil, err
		}
		timings = append(timings, QueryTiming{
			TraceIdx: item.user,
			QueryIdx: queries[item.user],
			Seconds:  res.Duration.Seconds(),
			Rows:     res.RowCount,
			RowsKey:  RowSetKey(res.Rows),
		})
		queries[item.user]++
	}
	return timings, nil
}

// replayOne is replay for a single trace, its timings labelled traceIdx.
func replayOne(sp *core.Speculator, traceIdx int, tr *trace.Trace) ([]QueryTiming, error) {
	timings, err := replay([]*core.Speculator{sp}, []*trace.Trace{tr})
	return labelled(timings, traceIdx), err
}

// PairedRun replays every trace under normal then speculative processing on
// the same environment, returning paired timings.
type PairedRun struct {
	Normal []QueryTiming
	Spec   []QueryTiming
	Stats  core.Stats // speculation counters summed over the traces
}

// RunPaired executes the paired replay for a corpus.
func RunPaired(env *Env, traces []*trace.Trace, cfg core.Config) (*PairedRun, error) {
	out := &PairedRun{}
	var perTrace []core.Stats
	for i, tr := range traces {
		nt, err := RunTraceNormal(env.Eng, i, tr)
		if err != nil {
			return nil, fmt.Errorf("harness: normal replay of trace %d: %w", i, err)
		}
		out.Normal = append(out.Normal, nt...)
		so, err := RunTraceSpeculative(env.Eng, i, tr, cfg)
		if err != nil {
			return nil, fmt.Errorf("harness: speculative replay of trace %d: %w", i, err)
		}
		out.Spec = append(out.Spec, so.Timings...)
		perTrace = append(perTrace, so.Stats)
	}
	out.Stats = SumStatsAll(perTrace)
	if len(out.Normal) != len(out.Spec) {
		return nil, fmt.Errorf("harness: paired runs disagree: %d vs %d queries", len(out.Normal), len(out.Spec))
	}
	return out, nil
}

// SumStatsAll sums per-session stats, every field (TestSumStatsAllCoversEveryField
// holds it to that).
func SumStatsAll(per []core.Stats) core.Stats {
	var a core.Stats
	for _, b := range per {
		a.Issued += b.Issued
		a.Completed += b.Completed
		a.CanceledInvalidated += b.CanceledInvalidated
		a.CanceledAtGo += b.CanceledAtGo
		a.CanceledOnClose += b.CanceledOnClose
		a.ContinuedAtGo += b.ContinuedAtGo
		a.Suspended += b.Suspended
		a.Deferred += b.Deferred
		a.MaterializationsIssued += b.MaterializationsIssued
		a.MaterializationTime += b.MaterializationTime
		a.GarbageCollected += b.GarbageCollected
		a.Failed += b.Failed
		a.Aborted += b.Aborted
		a.Abandoned += b.Abandoned
		a.BreakerTrips += b.BreakerTrips
		a.BreakerResumes += b.BreakerResumes
		a.SharedBuilds += b.SharedBuilds
		a.SharedAttached += b.SharedAttached
		a.DedupSaved += b.DedupSaved
		a.BudgetDeferred += b.BudgetDeferred
		a.Shed += b.Shed
		a.ShedRetained += b.ShedRetained
		a.DeadlineAborts += b.DeadlineAborts
		a.GovernorDeferred += b.GovernorDeferred
		a.PredictedIssued += b.PredictedIssued
		a.PredictedCompleted += b.PredictedCompleted
		a.PredictedCanceled += b.PredictedCanceled
		a.PredictedGos += b.PredictedGos
		a.InstantSaved += b.InstantSaved
		a.PredictEquivFailures += b.PredictEquivFailures
		a.AnswerCacheHits += b.AnswerCacheHits
		a.Hits += b.Hits
		a.Misses += b.Misses
		a.Waste += b.Waste
	}
	return a
}

// ScaledOutcome reports one simultaneous replay: from the paper's three users
// (Section 6.3) to hundreds of concurrent simulated sessions over one database
// (DESIGN.md §11's evaluation setting).
type ScaledOutcome struct {
	Timings []QueryTiming // TraceIdx identifies the user
	// PerUser holds each session's stats; Stats is their sum.
	PerUser []core.Stats
	Stats   core.Stats
	// SharedBuilds / DedupSaved snapshot the ledger's lifetime aggregates (zero
	// unless cfg.Ledger shares builds).
	SharedBuilds int
	DedupSaved   sim.Duration
	// WasteLedgers holds each session's per-build waste-charge counts
	// (core.Speculator.WasteCharges), for the charged-once invariant.
	WasteLedgers []map[string]int
}

// RunScaledSessions replays several traces simultaneously against one engine,
// after a cold start: events from all users interleave by timestamp, each user
// has an independent Speculator, and the contention model, if cfg sets one,
// sees the other users' in-flight manipulations in the ledger they share. The
// caller supplies the config — workers, governor, and the ledger the
// sessions share (a sharing one for cross-session CSE; nil gets a non-sharing
// one) — so CSE on/off comparisons replay the identical merged event
// sequence. Stats and waste ledgers are snapshotted before each user's
// Shutdown.
func RunScaledSessions(eng *engine.Engine, traces []*trace.Trace, cfg core.Config) (*ScaledOutcome, error) {
	if err := eng.ColdStart(); err != nil {
		return nil, err
	}
	if cfg.Ledger == nil {
		cfg.Ledger = core.NewLedger(eng.Metrics(), false)
	}
	sps := make([]*core.Speculator, len(traces))
	for i := range traces {
		c := cfg
		c.NamePrefix = fmt.Sprintf("spec_u%d", i)
		sps[i] = core.NewSpeculator(eng, core.NewLearner(core.DefaultLearnerConfig()), c)
	}
	timings, err := replay(sps, traces)
	if err != nil {
		return nil, err
	}
	out := &ScaledOutcome{Timings: timings, PerUser: make([]core.Stats, len(sps)), WasteLedgers: make([]map[string]int, len(sps))}
	for i, sp := range sps {
		out.PerUser[i] = sp.Stats()
		out.WasteLedgers[i] = sp.WasteCharges()
		if err := sp.Shutdown(); err != nil {
			return nil, err
		}
	}
	out.Stats = SumStatsAll(out.PerUser)
	out.SharedBuilds, out.DedupSaved = cfg.Ledger.Snapshot()
	return out, nil
}

// ScaledCorpus generates the scaled-session trace corpus: sessions short
// traces (a handful of queries each) with per-session seeds derived from
// seed, so hundreds of sessions replay in reasonable test time while still
// overlapping heavily in the subplans they speculate.
func ScaledCorpus(v *trace.Vocabulary, sessions int, seed uint64) ([]*trace.Trace, error) {
	traces := make([]*trace.Trace, 0, sessions)
	for i := 0; i < sessions; i++ {
		cfg := trace.DefaultGenConfig(fmt.Sprintf("scaled%03d", i+1), seed+uint64(i)*1000003)
		cfg.NumQueries = 4
		cfg.NumTasks = 1
		t, err := trace.Generate(v, cfg)
		if err != nil {
			return nil, err
		}
		traces = append(traces, t)
	}
	return traces, nil
}

// RunMultiUserNormal replays several traces simultaneously WITHOUT
// speculation: queries execute at their GO times and nothing contends with
// them (normal multi-user processing shares only the pool).
func RunMultiUserNormal(eng *engine.Engine, traces []*trace.Trace) ([]QueryTiming, error) {
	if err := eng.ColdStart(); err != nil {
		return nil, err
	}
	return replayNormal(eng, traces)
}

// replayNormal is RunMultiUserNormal on the pool as it is.
func replayNormal(eng *engine.Engine, traces []*trace.Trace) ([]QueryTiming, error) {
	type item struct {
		user int
		q    trace.Query
	}
	var all []item
	for u, tr := range traces {
		qs, err := trace.ExtractQueries(tr)
		if err != nil {
			return nil, err
		}
		for _, q := range qs {
			all = append(all, item{user: u, q: q})
		}
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].q.GoAt != all[j].q.GoAt {
			return all[i].q.GoAt < all[j].q.GoAt
		}
		return all[i].user < all[j].user
	})
	var out []QueryTiming
	for _, it := range all {
		bound, err := plan.BindGraphProjections(eng.Catalog, it.q.Graph, it.q.Projs)
		if err != nil {
			return nil, err
		}
		res, err := eng.RunQuery(bound)
		if err != nil {
			return nil, err
		}
		out = append(out, QueryTiming{
			TraceIdx: it.user,
			QueryIdx: it.q.Index,
			Seconds:  res.Duration.Seconds(),
			Rows:     res.RowCount,
			RowsKey:  RowSetKey(res.Rows),
		})
	}
	return out, nil
}
