package specdb

// Wall-clock and allocation benchmarks for the executor's layers, and the
// replay that scripts/profile.sh profiles. One op of a BenchmarkLayer* is one
// pass over a fixed input on a pool that holds it, so the allocations of the
// measured passes (the "allocs" metric, see passes) and B/op are counts of a
// deterministic program: scripts/bench_gate.sh compares them against
// BENCH_allocs.txt, on one P with the collector off, and reports ns/op for
// information. To read the gate's numbers by hand:
//
//	GOGC=off go test -run '^$' -cpu 1 -bench '^BenchmarkLayer' -benchmem -benchtime=10x .

import (
	"fmt"
	"runtime"
	"testing"

	"specdb/internal/btree"
	"specdb/internal/buffer"
	"specdb/internal/catalog"
	"specdb/internal/core"
	"specdb/internal/engine"
	"specdb/internal/exec"
	"specdb/internal/harness"
	"specdb/internal/plan"
	"specdb/internal/qgraph"
	"specdb/internal/sim"
	"specdb/internal/sql"
	"specdb/internal/storage"
	"specdb/internal/tpch"
	"specdb/internal/trace"
	"specdb/internal/tuple"
)

// The replays run the 3-user corpus of seed 7 on the 100MB data of seed 42:
// BENCH_spec.json's corpus, and cmd/bench's.
const (
	benchUsers = 3
	benchSeed  = 7
	benchData  = 42
)

var benchTraces []*trace.Trace

func corpus(b *testing.B) []*trace.Trace {
	b.Helper()
	if benchTraces == nil {
		var err error
		benchTraces, err = trace.GenerateCorpus(tpch.Vocabulary(), benchUsers, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	return benchTraces
}

// replayBench times passes of the 3-user corpus (corpus 7 of cmd/bench) on a
// cold 32 MB-equivalent pool, after warm untimed ones: one op is every trace
// through replayTrace once, and the metric is wall milliseconds per GO. The
// three replays below are cmd/bench's normal_replay, spec_replay and
// predict_replay workloads as `go test -bench` targets, so -cpuprofile and
// -memprofile can see them (scripts/profile.sh).
func replayBench(b *testing.B, warm int, replayTrace func(eng *engine.Engine, pass, idx int, tr *trace.Trace) (gos int, err error)) {
	traces := corpus(b)
	env, err := harness.NewEnv(harness.EnvConfig{Scale: tpch.Scale100MB, Seed: benchData})
	if err != nil {
		b.Fatal(err)
	}
	gos := 0
	for pass := 0; pass < warm+b.N; pass++ {
		if pass == warm {
			gos = 0
			b.ReportAllocs()
			b.ResetTimer()
		}
		for idx, tr := range traces {
			n, err := replayTrace(env.Eng, pass, idx, tr)
			if err != nil {
				b.Fatal(err)
			}
			gos += n
		}
	}
	b.ReportMetric(float64(b.Elapsed().Milliseconds())/float64(gos), "ms/GO")
}

// BenchmarkNormalReplay: speculation off, every GO a cold-started RunQuery.
func BenchmarkNormalReplay(b *testing.B) {
	replayBench(b, 0, func(eng *engine.Engine, _, idx int, tr *trace.Trace) (int, error) {
		timings, err := harness.RunTraceNormal(eng, idx, tr)
		return len(timings), err
	})
}

// BenchmarkSpecReplay: the paper's f4 setting — core.DefaultConfig(), a fresh
// learner per trace — so the edit path (OnEvent, Complete, Materialize) is in
// the profile.
func BenchmarkSpecReplay(b *testing.B) {
	replayBench(b, 0, func(eng *engine.Engine, _, idx int, tr *trace.Trace) (int, error) {
		out, err := harness.RunTraceSpeculative(eng, idx, tr, core.DefaultConfig())
		if err != nil {
			return 0, err
		}
		return len(out.Timings), nil
	})
}

// BenchmarkPredictReplay: whole-query prediction as harness.RunPredictBench
// replays it — predictor, answer cache and learner shared by every trace and
// pass, one untimed training pass first.
func BenchmarkPredictReplay(b *testing.B) {
	base := core.DefaultConfig()
	base.Predictor = core.NewPredictor(core.DefaultPredictorConfig())
	base.Answers = core.NewAnswerCache(nil, 0)
	learner := core.NewLearner(core.DefaultLearnerConfig())
	replayBench(b, 1, func(eng *engine.Engine, pass, idx int, tr *trace.Trace) (int, error) {
		cfg := base
		cfg.NamePrefix = fmt.Sprintf("pred_p%d_t%d", pass, idx)
		out, err := harness.RunTraceWithLearner(eng, idx, tr, cfg, learner)
		if err != nil {
			return 0, err
		}
		return len(out.Timings), nil
	})
}

// layerEnv is the 100MB dataset on a pool that holds all of it; the loader
// builds the l_orderkey index the index-NL and B+-tree benchmarks probe.
// Loaded once per process.
type layerEnv struct {
	eng             *engine.Engine
	ctx             *exec.Context
	lineitem        *catalog.Table
	orders          *catalog.Table
	byOrder         *catalog.Index // lineitem.l_orderkey
	orderRows       []tuple.Row
	lineitemRecords [][]byte
}

var layers *layerEnv

func layerSetup(b *testing.B) *layerEnv {
	b.Helper()
	if layers != nil {
		return layers
	}
	eng := engine.New(engine.Config{BufferPoolPages: 4096})
	if err := tpch.Load(eng, tpch.Scale100MB, benchData); err != nil {
		b.Fatal(err)
	}
	l := &layerEnv{eng: eng, ctx: exec.NewContext(sim.NewMeter())}
	var err error
	if l.lineitem, err = eng.Catalog.Table("lineitem"); err != nil {
		b.Fatal(err)
	}
	if l.orders, err = eng.Catalog.Table("orders"); err != nil {
		b.Fatal(err)
	}
	l.byOrder = l.lineitem.Index("l_orderkey")
	if l.orderRows, err = exec.Collect(exec.NewSeqScan(l.ctx, l.orders, "")); err != nil {
		b.Fatal(err)
	}
	err = l.lineitem.Heap.Scan(func(_ storage.RID, rec []byte) error {
		l.lineitemRecords = append(l.lineitemRecords, append([]byte(nil), rec...))
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	layers = l
	return l
}

// passes runs pass(0) untimed, then pass(1) … pass(b.N) in the measured
// window of a layer benchmark. The untimed pass leaves behind what a pass
// makes once: the pool holding what it reads, and the per-P array of every
// slab (internal/slab) it touches, which the runtime.GC testing runs before
// each measured run empties. Beside testing's allocs/op it reports the
// window's allocations undivided, as "allocs": scripts/bench_gate.sh
// compares that total, because allocs/op is the total divided by b.N and
// rounded down — one allocation more in ten passes turns 4889 into 4890 and
// 488 allocs/op into 489.
func passes(b *testing.B, pass func(i int)) {
	pass(0)
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	start := m.Mallocs
	b.ReportAllocs()
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		pass(i)
	}
	b.StopTimer()
	runtime.ReadMemStats(&m)
	b.ReportMetric(float64(m.Mallocs-start), "allocs")
}

// perRow reports the pass time divided by the rows one pass handles.
func perRow(b *testing.B, rows int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows), "ns/row")
}

func BenchmarkLayerDecodeRowInto(b *testing.B) {
	l := layerSetup(b)
	dst := make(tuple.Row, l.lineitem.Schema.Len())
	passes(b, func(int) {
		for _, rec := range l.lineitemRecords {
			if _, err := tuple.DecodeRowInto(dst, rec, l.lineitem.Schema); err != nil {
				b.Fatal(err)
			}
		}
	})
	perRow(b, len(l.lineitemRecords))
}

func BenchmarkLayerSeqScan(b *testing.B) {
	l := layerSetup(b)
	passes(b, func(int) {
		if _, err := exec.Count(exec.NewSeqScan(l.ctx, l.lineitem, "")); err != nil {
			b.Fatal(err)
		}
	})
	perRow(b, len(l.lineitemRecords))
}

func BenchmarkLayerFilter(b *testing.B) {
	l := layerSetup(b)
	pred, err := exec.CompilePred(l.lineitem.Schema, "l_quantity", tuple.CmpLT, tuple.NewInt(25))
	if err != nil {
		b.Fatal(err)
	}
	passes(b, func(int) {
		scan := exec.NewSeqScan(l.ctx, l.lineitem, "")
		if _, err := exec.Count(exec.NewFilter(l.ctx, scan, []exec.Pred{pred})); err != nil {
			b.Fatal(err)
		}
	})
	perRow(b, len(l.lineitemRecords))
}

// BenchmarkLayerScanFiltered is BenchmarkLayerFilter with the selection fused
// into the scan, as a planned sequential access runs it: the scan tests
// l_quantity on each stored record and decodes only the rows that pass.
func BenchmarkLayerScanFiltered(b *testing.B) {
	l := layerSetup(b)
	pred, err := exec.CompilePred(l.lineitem.Schema, "l_quantity", tuple.CmpLT, tuple.NewInt(25))
	if err != nil {
		b.Fatal(err)
	}
	passes(b, func(int) {
		if _, err := exec.Count(exec.NewSeqScan(l.ctx, l.lineitem, "").Where(pred)); err != nil {
			b.Fatal(err)
		}
	})
	perRow(b, len(l.lineitemRecords))
}

// ordersJoinLineitem is one orders ⋈ lineitem per pass and one for the
// untimed pass, orders on the build side. Operators are constructed before
// the timer starts: building a schema allocates a map, whose cost depends on
// the Go version, and the gate compares counts exactly.
func ordersJoinLineitem(b *testing.B, l *layerEnv) []*exec.HashJoin {
	joins := make([]*exec.HashJoin, b.N+1)
	for i := range joins {
		var err error
		joins[i], err = exec.NewHashJoin(l.ctx, exec.NewSeqScan(l.ctx, l.orders, ""),
			exec.NewSeqScan(l.ctx, l.lineitem, ""), "o_orderkey", "l_orderkey")
		if err != nil {
			b.Fatal(err)
		}
	}
	return joins
}

func BenchmarkLayerHashJoinBuild(b *testing.B) {
	l := layerSetup(b)
	joins := ordersJoinLineitem(b, l)
	passes(b, func(i int) {
		hj := joins[i]
		if err := hj.Open(); err != nil {
			b.Fatal(err)
		}
		if err := hj.Close(); err != nil {
			b.Fatal(err)
		}
	})
	perRow(b, len(l.orderRows))
}

func BenchmarkLayerHashJoinProbe(b *testing.B) {
	l := layerSetup(b)
	joins := ordersJoinLineitem(b, l)
	for _, hj := range joins {
		if err := hj.Open(); err != nil {
			b.Fatal(err)
		}
	}
	passes(b, func(i int) {
		hj := joins[i]
		for {
			_, ok, err := hj.Next()
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				break
			}
		}
	})
	perRow(b, len(l.lineitemRecords))
	for _, hj := range joins {
		if err := hj.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLayerHashJoinProbeSelective probes lineitem against every fourth
// order, so about one probe key in four matches, as in the replay corpus: the
// probe scan takes the join's key test and skips the other records undecoded.
// The build sides are opened before the timer starts.
func BenchmarkLayerHashJoinProbeSelective(b *testing.B) {
	l := layerSetup(b)
	var quarter []tuple.Row
	for i := 0; i < len(l.orderRows); i += 4 {
		quarter = append(quarter, l.orderRows[i])
	}
	joins := make([]*exec.HashJoin, b.N+1)
	for i := range joins {
		var err error
		joins[i], err = exec.NewHashJoin(l.ctx, exec.NewValuesScan(l.ctx, l.orders.Schema, quarter),
			exec.NewSeqScan(l.ctx, l.lineitem, ""), "o_orderkey", "l_orderkey")
		if err != nil {
			b.Fatal(err)
		}
		if err := joins[i].Open(); err != nil {
			b.Fatal(err)
		}
	}
	passes(b, func(i int) {
		hj := joins[i]
		for {
			_, ok, err := hj.Next()
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				break
			}
		}
	})
	perRow(b, len(l.lineitemRecords))
	for _, hj := range joins {
		if err := hj.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLayerHashJoinResidual is one partsupp ⋈ lineitem on partkey AND
// suppkey per pass, build and probe together: the join hashes on partkey and
// tests suppkey on every candidate pair, of which one in four is a match.
func BenchmarkLayerHashJoinResidual(b *testing.B) {
	l := layerSetup(b)
	partsupp, err := l.eng.Catalog.Table("partsupp")
	if err != nil {
		b.Fatal(err)
	}
	joins := make([]*exec.HashJoin, b.N+1)
	for i := range joins {
		joins[i], err = exec.NewHashJoin(l.ctx, exec.NewSeqScan(l.ctx, partsupp, ""), exec.NewSeqScan(l.ctx, l.lineitem, ""),
			"ps_partkey", "l_partkey", exec.JoinEdge{LeftCol: "ps_suppkey", RightCol: "l_suppkey"})
		if err != nil {
			b.Fatal(err)
		}
	}
	passes(b, func(i int) {
		hj := joins[i]
		if n, err := exec.Count(hj); err != nil || n == 0 {
			b.Fatalf("%d rows, %v", n, err)
		}
	})
	perRow(b, len(l.lineitemRecords))
}

func BenchmarkLayerIndexNLProbe(b *testing.B) {
	l := layerSetup(b)
	outer := l.orderRows[:2000]
	joins := make([]*exec.IndexNLJoin, b.N+1)
	for i := range joins {
		var err error
		joins[i], err = exec.NewIndexNLJoin(l.ctx, exec.NewValuesScan(l.ctx, l.orders.Schema, outer),
			"o_orderkey", l.lineitem, l.byOrder, "lineitem", nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	passes(b, func(i int) {
		j := joins[i]
		if _, err := exec.Count(j); err != nil {
			b.Fatal(err)
		}
	})
	perRow(b, len(outer))
}

func BenchmarkLayerBTreeLookup(b *testing.B) {
	l := layerSetup(b)
	keys := make([][]byte, 2000)
	for i := range keys {
		keys[i] = tuple.EncodeKey(nil, l.orderRows[i][0])
	}
	visit := func([]byte, storage.RID) error { return nil }
	passes(b, func(int) {
		for _, k := range keys {
			if err := l.byOrder.Tree.Scan(btree.Exact(k), btree.Exact(k), visit); err != nil {
				b.Fatal(err)
			}
		}
	})
	perRow(b, len(keys))
}

// BenchmarkLayerPoolMiss cycles through four times as many pages as the pool
// has frames, so every Get evicts and reads.
func BenchmarkLayerPoolMiss(b *testing.B) {
	const frames = 64
	pool := buffer.NewPool(storage.NewDiskManager(0), frames, sim.NewMeter())
	ids := make([]storage.PageID, 4*frames)
	for i := range ids {
		id, _, err := pool.New()
		if err != nil {
			b.Fatal(err)
		}
		pool.Unpin(id, true)
		ids[i] = id
	}
	passes(b, func(int) {
		for _, id := range ids {
			if _, err := pool.Get(id); err != nil {
				b.Fatal(err)
			}
			pool.Unpin(id, false)
		}
	})
	perRow(b, len(ids))
}

// layerQuery binds the fixed two-join query of the RunQuery benchmarks: the
// low-priority orders with their customers and line items.
func layerQuery(b *testing.B, l *layerEnv) *plan.Query {
	b.Helper()
	stmt, err := sql.Parse("SELECT * FROM customer, orders, lineitem" +
		" WHERE customer.c_custkey = orders.o_custkey AND orders.o_orderkey = lineitem.l_orderkey" +
		" AND orders.o_orderpriority < 2")
	if err != nil {
		b.Fatal(err)
	}
	q, err := plan.Bind(l.eng.Catalog, stmt.(*sql.SelectStmt))
	if err != nil {
		b.Fatal(err)
	}
	if res, err := l.eng.RunQuery(q); err != nil || res.RowCount == 0 {
		b.Fatalf("layer query: %v, %v", res, err)
	}
	return q
}

// BenchmarkLayerRunQuery is one whole statement through the engine's boundary
// — lock, the statement's meter and pool view, optimize, build, drain — on a
// pool that holds the data, one session. Its allocs/op pin what the boundary
// itself costs on top of the operators.
func BenchmarkLayerRunQuery(b *testing.B) {
	l := layerSetup(b)
	q := layerQuery(b, l)
	passes(b, func(int) {
		if _, err := l.eng.RunQuery(q); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkLayerRunQueryParallel is the same statement from GOMAXPROCS
// sessions at once: read-only statements share the statement lock, so ns/op
// falls with the cores instead of staying at the serial figure. Wall time
// only — scripts/bench_gate.sh prints it and gates nothing on it.
func BenchmarkLayerRunQueryParallel(b *testing.B) {
	l := layerSetup(b)
	q := layerQuery(b, l)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := l.eng.RunQuery(q); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkLayerServedGo is the instant-GO serve path (DESIGN.md §14): a
// speculator holding one ready prediction answers the same GO again and again,
// one op being one served OnGo — lookup, validation, learner and predictor
// training, and the admission walk that finds nothing to issue. The cached
// rows are handed over, never copied or re-keyed, so the two answer sizes must
// record the same allocs/op.
func BenchmarkLayerServedGo(b *testing.B) {
	for _, rows := range []int{2000, 8000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			eng := engine.New(engine.Config{BufferPoolPages: 256})
			schema := tuple.NewSchema(tuple.Column{Name: "a", Kind: tuple.KindInt}, tuple.Column{Name: "c", Kind: tuple.KindInt})
			if _, err := eng.CreateTable("R", schema); err != nil {
				b.Fatal(err)
			}
			data := make([]tuple.Row, 2*rows)
			for i := range data {
				data[i] = tuple.Row{tuple.NewInt(int64(i)), tuple.NewInt(int64(i % 2))}
			}
			if err := eng.InsertRows("R", data); err != nil {
				b.Fatal(err)
			}
			if err := eng.Analyze("R", nil); err != nil {
				b.Fatal(err)
			}
			// Trained to expect the odd half of R as the final; no fragment
			// family is on, so the predicted final is the only job ever issued.
			sel := qgraph.Selection{Rel: "R", Col: "c", Op: tuple.CmpGT, Const: tuple.NewInt(0)}
			final := qgraph.SelectionSubgraph(sel)
			cfg := core.DefaultConfig()
			cfg.Ops, cfg.MinBenefit = core.OpSet{}, 0
			cfg.Predictor = core.NewPredictor(core.PredictorConfig{})
			cfg.Predictor.ObserveFinal([]string{final.Key()}, "", final, nil)
			sp := core.NewSpeculator(eng, core.NewLearner(core.DefaultLearnerConfig()), cfg)
			sj := trace.FromSelection(sel)
			out, err := sp.OnEvent(trace.Event{Kind: trace.EvAddSelection, Sel: &sj}, sim.FromSeconds(1))
			if err != nil || len(out.Issued) != 1 {
				b.Fatalf("no predicted final issued: %v, %v", out.Issued, err)
			}
			now := out.Issued[0].CompletesAt
			if err := sp.Advance(now); err != nil {
				b.Fatal(err)
			}
			served := func() {
				now = now.Add(sim.DurationFromSeconds(1))
				res, _, err := sp.OnGo(now)
				if err != nil || res.RowCount != int64(rows) {
					b.Fatalf("GO: %v, %v", res, err)
				}
			}
			// The learner's and predictor's tables stop growing after the
			// first few identical formulations.
			const warmup = 16
			for i := 0; i < warmup; i++ {
				served()
			}
			passes(b, func(int) {
				served()
			})
			if got := sp.Stats().PredictedGos; got != warmup+1+b.N {
				b.Fatalf("%d of %d GOs were served", got, warmup+1+b.N)
			}
		})
	}
}

// layerSubgraph is the fixed two-join sub-graph of the Materialize benchmark:
// layerQuery's graph, as a speculator would hand it to the engine.
func layerSubgraph() *qgraph.Graph {
	g := qgraph.New()
	g.AddJoin(qgraph.NewJoin("customer", "c_custkey", "orders", "o_custkey"))
	g.AddJoin(qgraph.NewJoin("orders", "o_orderkey", "lineitem", "l_orderkey"))
	g.AddSelection(qgraph.Selection{Rel: "orders", Col: "o_orderpriority", Op: tuple.CmpLT, Const: tuple.NewInt(2)})
	return g
}

// BenchmarkLayerMaterialize is one speculative build and its drop: run the
// sub-query, write the view's heap, collect every column's statistics from
// the stream, register the view. Its allocs/op and B/op pin that the
// statistics cost a set per column, not a copy of the view.
func BenchmarkLayerMaterialize(b *testing.B) {
	l := layerSetup(b)
	g := layerSubgraph()
	build := func() {
		res, err := l.eng.Materialize("layer_mv", g, false)
		if err != nil || res.RowCount == 0 {
			b.Fatalf("materialize: %v, %v", res, err)
		}
		if err := l.eng.DropTable("layer_mv"); err != nil {
			b.Fatal(err)
		}
	}
	passes(b, func(int) {
		build()
	})
}

// BenchmarkLayerAnalyze is ANALYZE of lineitem: one heap scan feeding a
// collector per column.
func BenchmarkLayerAnalyze(b *testing.B) {
	l := layerSetup(b)
	passes(b, func(int) {
		if err := l.eng.Analyze("lineitem", nil); err != nil {
			b.Fatal(err)
		}
	})
	perRow(b, len(l.lineitemRecords))
}

// BenchmarkLayerIndexBuild is CREATE INDEX and DROP INDEX on
// lineitem.l_partkey: scan, key encoding, sort, bulk load. The loader's own
// index on the column is dropped first and rebuilt after.
func BenchmarkLayerIndexBuild(b *testing.B) {
	l := layerSetup(b)
	if err := l.eng.DropIndex("lineitem", "l_partkey"); err != nil {
		b.Fatal(err)
	}
	passes(b, func(int) {
		if _, err := l.eng.CreateIndex("lineitem", "l_partkey", nil); err != nil {
			b.Fatal(err)
		}
		if err := l.eng.DropIndex("lineitem", "l_partkey"); err != nil {
			b.Fatal(err)
		}
	})
	perRow(b, len(l.lineitemRecords))
	if _, err := l.eng.CreateIndex("lineitem", "l_partkey", nil); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkLayerHistogramBuild is CREATE HISTOGRAM and DROP HISTOGRAM on
// lineitem.l_extendedprice: one heap scan into a column slice sized once from
// the row count, a sort, and twenty equi-depth buckets.
func BenchmarkLayerHistogramBuild(b *testing.B) {
	l := layerSetup(b)
	build := func() {
		if _, err := l.eng.CreateHistogram("lineitem", "l_extendedprice", nil); err != nil {
			b.Fatal(err)
		}
		if err := l.eng.DropHistogram("lineitem", "l_extendedprice"); err != nil {
			b.Fatal(err)
		}
	}
	passes(b, func(int) {
		build()
	})
	perRow(b, len(l.lineitemRecords))
}

// layerFinal is the first final of the bench corpus that joins three
// relations.
func layerFinal(b *testing.B) *qgraph.Graph {
	b.Helper()
	for _, tr := range corpus(b) {
		qs, err := trace.ExtractQueries(tr)
		if err != nil {
			b.Fatal(err)
		}
		for _, q := range qs {
			if q.Graph.NumRelations() == 3 && q.Graph.NumJoins() == 2 {
				return q.Graph
			}
		}
	}
	b.Fatal("no three-relation final in the corpus")
	return nil
}

// BenchmarkLayerOptimize is one pricing as the speculator's cost model asks
// for it (CostModel.Score → Engine.PlanGraph): bind the graph, search the
// view covers, join orders and access paths, and build the plan it returns,
// for a three-relation final of the bench corpus with a forced view of one of
// its joins registered, so that the search prices that view's cover too. Its
// allocations pin that planning allocates for the plan it returns, not for
// each candidate it prices (DESIGN.md §15, "What planning allocates").
func BenchmarkLayerOptimize(b *testing.B) {
	l := layerSetup(b)
	final := layerFinal(b)
	if _, err := l.eng.Materialize("layer_opt_view", qgraph.JoinSubgraph(final, final.Joins()[0]), true); err != nil {
		b.Fatal(err)
	}
	defer func() {
		if err := l.eng.DropTable("layer_opt_view"); err != nil {
			b.Fatal(err)
		}
	}()
	var node plan.Node
	passes(b, func(int) {
		var err error
		if node, err = l.eng.PlanGraph(final); err != nil {
			b.Fatal(err)
		}
	})
	readsView := false
	plan.Walk(node, func(n plan.Node) {
		if a, ok := n.(*plan.TableAccess); ok && a.Table.Name == "layer_opt_view" {
			readsView = true
		}
	})
	if !readsView {
		b.Fatalf("the plan does not read the view:\n%s", plan.Explain(node))
	}
}

// BenchmarkLayerSetup is cmd/bench's set-up, the setup_s of every replay
// workload: harness.NewEnv at 100MB on the 46-page pool — generate and load
// the six tables, each load feeding its table's statistics, indexes and
// histograms, build every index and histogram tpch.Load prepares, cold-start
// the pool. One pass is one environment; scripts/bench_gate.sh gates its
// allocations and scripts/profile.sh setup profiles it. The gate runs it in a
// go test process of its own: the heap it grows, with the collector off, must
// not fall inside another benchmark's window, where it read as one allocation
// more in BenchmarkLayerDecodeRowInto two runs in three.
func BenchmarkLayerSetup(b *testing.B) {
	passes(b, func(int) {
		if _, err := harness.NewEnv(harness.EnvConfig{Scale: tpch.Scale100MB, Seed: benchData, BufferPoolPages: harness.PoolPages32MB}); err != nil {
			b.Fatal(err)
		}
	})
}
