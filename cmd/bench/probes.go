package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"specdb/internal/btree"
	"specdb/internal/buffer"
	"specdb/internal/catalog"
	"specdb/internal/core"
	"specdb/internal/exec"
	"specdb/internal/harness"
	"specdb/internal/obs"
	"specdb/internal/plan"
	"specdb/internal/qgraph"
	"specdb/internal/sim"
	"specdb/internal/sql"
	"specdb/internal/stats"
	"specdb/internal/storage"
	"specdb/internal/tpch"
	"specdb/internal/trace"
	"specdb/internal/tuple"
)

// The layer probes call each layer's exported functions directly, on a fresh
// 100MB environment whose pool holds everything, and time them from outside.
// Each figure is the fastest of a few repetitions. They are sandbox numbers:
// the page file of the storage probes sits in the operating system's cache
// and is never synced.

const probeReps = 3

// best runs fn probeReps times and returns the fastest.
func best(fn func() error) (time.Duration, error) {
	fastest := time.Duration(math.MaxInt64)
	for i := 0; i < probeReps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		fastest = min(fastest, time.Since(t0))
	}
	return fastest, nil
}

// prober accumulates probe metrics; the first error stops every later probe.
type prober struct {
	out   []metric
	err   error
	scale float64
}

// n scales an iteration count, keeping at least one.
func (p *prober) n(full int) int {
	n := int(float64(full) * p.scale)
	if n < 1 {
		n = 1
	}
	return n
}

// per reports the fastest time of fn divided by count, in the given unit.
func (p *prober) per(name, unit string, count int, fn func() error) {
	if p.err != nil {
		return
	}
	d, err := best(fn)
	if err != nil {
		p.err = fmt.Errorf("%s: %w", name, err)
		return
	}
	p.add(name, unit, float64(d)/float64(unitNs(unit))/float64(count), count)
}

func (p *prober) add(name, unit string, value float64, n int) {
	p.out = append(p.out, metric{name, unit, value, n})
}

func unitNs(unit string) time.Duration {
	switch unit {
	case "ns":
		return time.Nanosecond
	case "us":
		return time.Microsecond
	case "ms":
		return time.Millisecond
	}
	return time.Second
}

func runProbes(scale float64, tmpRoot string) ([]metric, error) {
	p := &prober{scale: scale}

	sc, err := tpch.ScaleByName(scaleName)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	env, err := harness.NewEnv(harness.EnvConfig{Scale: sc, Seed: dataSeed, BufferPoolPages: hotPoolPages})
	if err != nil {
		return nil, err
	}
	load := time.Since(t0)
	p.add("tpch.load_rows_per_s", "1/s", float64(sc.TotalRows())/load.Seconds(), sc.TotalRows())
	eng := env.Eng
	cat := eng.Catalog

	var traces []*trace.Trace
	p.per("trace.generate_ms_per_trace", "ms", referenceUsers, func() (err error) {
		traces, err = trace.GenerateCorpus(tpch.Vocabulary(), referenceUsers, referenceSeed)
		return err
	})
	if p.err != nil {
		return nil, p.err
	}
	var finals []trace.Query
	for _, tr := range traces {
		qs, err := trace.ExtractQueries(tr)
		if err != nil {
			return nil, err
		}
		finals = append(finals, qs...)
	}
	finals = finals[:p.n(len(finals))]

	p.planProbes(eng.Rates(), cat, finals)
	p.formProbes(finals)
	p.execProbes(cat, finals, eng.Rates())
	p.engineProbes(env, finals)
	p.storageProbes(tmpRoot)
	p.btreeProbes()
	p.bufferProbes()
	p.coreProbes(finals)
	p.smallProbes(env)
	return p.out, p.err
}

func (p *prober) planProbes(rates sim.CostRates, cat *catalog.Catalog, finals []trace.Query) {
	bound := make([]*plan.Query, len(finals))
	p.per("plan.bind_us_per_query", "us", len(finals), func() error {
		for i, q := range finals {
			b, err := plan.BindGraphProjections(cat, q.Graph, q.Projs)
			if err != nil {
				return err
			}
			bound[i] = b
		}
		return nil
	})
	p.per("plan.optimize_us_per_query", "us", len(finals), func() error {
		for _, b := range bound {
			if _, err := plan.Optimize(cat, b, plan.Options{Rates: rates}); err != nil {
				return err
			}
		}
		return nil
	})
}

func (p *prober) formProbes(finals []trace.Query) {
	texts := make([]string, len(finals))
	p.per("sql.render_us_per_stmt", "us", len(finals), func() error {
		for i, q := range finals {
			texts[i] = sql.RenderForm(q.Graph, q.Projs).String()
		}
		return nil
	})
	p.per("sql.parse_us_per_stmt", "us", len(finals), func() error {
		for _, text := range texts {
			if _, err := sql.ParseSelect(text); err != nil {
				return err
			}
		}
		return nil
	})
	keyBytes := 0
	p.per("qgraph.key_ns", "ns", len(finals), func() error {
		for _, q := range finals {
			keyBytes += len(q.Graph.Key())
		}
		return nil
	})
	probeSink += uint64(keyBytes)
}

func (p *prober) execProbes(cat *catalog.Catalog, finals []trace.Query, rates sim.CostRates) {
	if p.err != nil {
		return
	}
	meter := sim.NewMeter()
	ctx := exec.NewContext(meter)
	lineitem, err := cat.Table("lineitem")
	if err != nil {
		p.err = err
		return
	}
	orders, err := cat.Table("orders")
	if err != nil {
		p.err = err
		return
	}

	// Whole plans: build and collect a sample of the finals, planning excluded.
	var nodes []plan.Node
	for i := 0; i < len(finals); i += 4 {
		b, err := plan.BindGraphProjections(cat, finals[i].Graph, finals[i].Projs)
		if err != nil {
			p.err = err
			return
		}
		node, err := plan.Optimize(cat, b, plan.Options{Rates: rates})
		if err != nil {
			p.err = err
			return
		}
		nodes = append(nodes, node)
	}
	var allocBytes uint64
	var tuples int64
	p.per("exec.collect_ms_per_query", "ms", len(nodes), func() error {
		mem, work := readMem(), meter.Snapshot()
		for _, node := range nodes {
			it, err := node.Build(ctx)
			if err != nil {
				return err
			}
			if _, err := exec.Collect(it); err != nil {
				return err
			}
		}
		allocBytes, tuples = readMem().TotalAlloc-mem.TotalAlloc, meter.Since(work).Tuples
		return nil
	})
	if p.err != nil {
		return
	}
	p.add("exec.alloc_kb_per_ktuple", "KB", float64(allocBytes)/1e3/(float64(tuples)/1e3), int(tuples))

	var liRows, ordRows []tuple.Row
	nLi := int(lineitem.RowCount())
	p.per("exec.seqscan_ns_per_row", "ns", nLi, func() (err error) {
		liRows, err = exec.Collect(exec.NewSeqScan(ctx, lineitem, ""))
		return err
	})
	if p.err != nil {
		return
	}
	if ordRows, p.err = exec.Collect(exec.NewSeqScan(ctx, orders, "")); p.err != nil {
		return
	}
	// The in-memory operator and codec probes run over a scaled sample.
	liRows, ordRows = liRows[:p.n(len(liRows))], ordRows[:p.n(len(ordRows))]
	nSample := len(liRows)
	count := func(it exec.Iterator) error {
		_, err := exec.Count(it)
		return err
	}
	p.per("exec.filter_ns_per_row", "ns", nSample, func() error {
		pred, err := exec.CompilePred(lineitem.Schema, "l_quantity", tuple.CmpLT, tuple.NewInt(25))
		if err != nil {
			return err
		}
		return count(exec.NewFilter(ctx, exec.NewValuesScan(ctx, lineitem.Schema, liRows), []exec.Pred{pred}))
	})
	p.per("exec.project_ns_per_row", "ns", nSample, func() error {
		proj, err := exec.NewProject(ctx, exec.NewValuesScan(ctx, lineitem.Schema, liRows), []string{"l_orderkey", "l_extendedprice"})
		if err != nil {
			return err
		}
		return count(proj)
	})
	// Hash join orders ⋈ lineitem: Open builds from orders, Next probes with
	// lineitem; the two phases are timed apart.
	buildBest, probeBest := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for i := 0; i < probeReps && p.err == nil; i++ {
		hj, err := exec.NewHashJoin(ctx, exec.NewValuesScan(ctx, orders.Schema, ordRows),
			exec.NewValuesScan(ctx, lineitem.Schema, liRows), "o_orderkey", "l_orderkey")
		if err != nil {
			p.err = err
			return
		}
		t0 := time.Now()
		err = hj.Open()
		build := time.Since(t0)
		for err == nil {
			var ok bool
			if _, ok, err = hj.Next(); !ok {
				break
			}
		}
		probe := time.Since(t0) - build
		if cerr := hj.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			p.err = fmt.Errorf("exec.hashjoin: %w", err)
			return
		}
		buildBest, probeBest = min(buildBest, build), min(probeBest, probe)
	}
	p.add("exec.hashjoin_build_ns_per_row", "ns", float64(buildBest)/float64(len(ordRows)), len(ordRows))
	p.add("exec.hashjoin_probe_ns_per_row", "ns", float64(probeBest)/float64(len(liRows)), len(liRows))
	outer := ordRows[:min(len(ordRows), 2000)] // ~90 us a probe
	p.per("exec.indexnl_ns_per_probe", "ns", len(outer), func() error {
		idx := lineitem.Index("l_orderkey")
		if idx == nil {
			return fmt.Errorf("lineitem.l_orderkey is not indexed")
		}
		j, err := exec.NewIndexNLJoin(ctx, exec.NewValuesScan(ctx, orders.Schema, outer), "o_orderkey", lineitem, idx, "lineitem", nil)
		if err != nil {
			return err
		}
		return count(j)
	})

	// tuple codec over the lineitem rows.
	recs := make([][]byte, len(liRows))
	p.per("tuple.encode_ns_per_row", "ns", len(liRows), func() error {
		for i, row := range liRows {
			rec, err := tuple.EncodeRow(recs[i][:0], lineitem.Schema, row)
			if err != nil {
				return err
			}
			recs[i] = rec
		}
		return nil
	})
	var mallocs uint64
	p.per("tuple.decode_ns_per_row", "ns", len(recs), func() error {
		before := readMem().Mallocs
		for _, rec := range recs {
			if _, _, err := tuple.DecodeRow(rec, lineitem.Schema); err != nil {
				return err
			}
		}
		mallocs = readMem().Mallocs - before
		return nil
	})
	p.add("tuple.decode_allocs_per_row", "count", float64(mallocs)/float64(len(recs)), len(recs))
	var key []byte
	p.per("tuple.encodekey_ns", "ns", len(liRows), func() error {
		for _, row := range liRows {
			key = tuple.EncodeKey(key[:0], row[0])
		}
		return nil
	})
	p.per("harness.rowsetkey_ns_per_row", "ns", len(liRows), func() error {
		probeSink += harness.RowSetKey(liRows)
		return nil
	})

	// storage: the heap file under the codec.
	p.per("storage.heap_scan_ns_per_row", "ns", nLi, func() error {
		return lineitem.Heap.Scan(func(storage.RID, []byte) error { return nil })
	})
	p.per("storage.heap_insert_ns_per_row", "ns", len(recs), func() error {
		heap := storage.NewHeapFile(buffer.NewPool(storage.NewDiskManager(0), hotPoolPages, sim.NewMeter()))
		for _, rec := range recs {
			if _, err := heap.Insert(rec); err != nil {
				return err
			}
		}
		return nil
	})
	p.per("catalog.analyze_ms_per_table", "ms", 1, func() error { return catalog.Analyze(lineitem) })
	p.per("stats.histogram_build_us", "us", 1, func() error {
		vals, err := catalog.ColumnValues(lineitem, "l_extendedprice")
		if err != nil {
			return err
		}
		_, err = stats.BuildHistogram(vals, 20)
		return err
	})
}

// engineProbes times speculative builds as the speculator issues them — the
// selection and join subgraphs of the finals — and planning against the views
// they leave behind.
func (p *prober) engineProbes(env *harness.Env, finals []trace.Query) {
	if p.err != nil {
		return
	}
	eng := env.Eng
	seen := map[string]bool{}
	var graphs []*qgraph.Graph
	for _, q := range finals {
		for _, s := range q.Graph.Selections() {
			graphs = append(graphs, qgraph.SelectionSubgraph(s))
		}
		for _, j := range q.Graph.Joins() {
			graphs = append(graphs, qgraph.JoinSubgraph(q.Graph, j))
		}
	}
	var names []string
	var total time.Duration
	limit := p.n(16)
	for _, g := range graphs {
		if len(names) == limit {
			break
		}
		if seen[g.Key()] {
			continue
		}
		seen[g.Key()] = true
		name := fmt.Sprintf("probe_mv%d", len(names))
		t0 := time.Now()
		_, err := eng.Materialize(name, g, false)
		total += time.Since(t0)
		if err != nil {
			p.err = fmt.Errorf("engine.materialize: %w", err)
			return
		}
		names = append(names, name)
	}
	p.add("engine.materialize_ms_per_build", "ms", ms(total)/float64(len(names)), len(names))
	p.per("plan.optimize_with_views_us_per_query", "us", len(finals), func() error {
		for _, q := range finals {
			b, err := plan.BindGraphProjections(eng.Catalog, q.Graph, q.Projs)
			if err != nil {
				return err
			}
			if _, err := plan.Optimize(eng.Catalog, b, plan.Options{Rates: eng.Rates(), UseViews: true}); err != nil {
				return err
			}
		}
		return nil
	})
	for _, name := range names {
		if err := eng.DropTable(name); err != nil && p.err == nil {
			p.err = err
		}
	}
}

// storageProbes drives a FileDisk in a scratch directory: page writes into
// the WAL, a commit, a checkpoint, and a reopen that replays a WAL tail.
func (p *prober) storageProbes(tmpRoot string) {
	if p.err != nil {
		return
	}
	fail := func(err error) { p.err = fmt.Errorf("storage.filedisk: %w", err) }
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		fail(err)
		return
	}
	dir, err := os.MkdirTemp(tmpRoot, "filedisk")
	if err != nil {
		fail(err)
		return
	}
	defer os.RemoveAll(dir)
	cfg := storage.FileConfig{Path: filepath.Join(dir, "pages.db"), CheckpointBytes: 1 << 40}
	fd, err := storage.OpenFileDisk(cfg)
	if err != nil {
		fail(err)
		return
	}
	pages := p.n(256)
	page := make([]byte, fd.PageSize())
	for i := range page {
		page[i] = byte(i)
	}
	ids := make([]storage.PageID, pages)
	for i := range ids {
		ids[i] = fd.Allocate()
	}
	writeAll := func() (time.Duration, error) {
		t0 := time.Now()
		for _, id := range ids {
			if err := fd.Write(id, page); err != nil {
				return 0, err
			}
		}
		return time.Since(t0), nil
	}
	walBefore := fd.WALSize()
	wrote, err := writeAll()
	if err != nil {
		fail(err)
		return
	}
	walBytes := fd.WALSize() - walBefore
	t0 := time.Now()
	_, err = fd.Commit([]byte("probe"))
	commit := time.Since(t0)
	if err != nil {
		fail(err)
		return
	}
	t0 = time.Now()
	_, err = fd.Checkpoint()
	checkpoint := time.Since(t0)
	if err != nil {
		fail(err)
		return
	}
	// A committed WAL tail for the reopen to replay.
	if _, err = writeAll(); err == nil {
		_, err = fd.Commit([]byte("probe"))
	}
	if err == nil {
		err = fd.Close()
	}
	if err != nil {
		fail(err)
		return
	}
	t0 = time.Now()
	fd, err = storage.OpenFileDisk(cfg)
	reopen := time.Since(t0)
	if err == nil {
		err = fd.Close()
	}
	if err != nil {
		fail(err)
		return
	}
	p.add("storage.filedisk_write_us_per_page", "us", us(wrote)/float64(pages), pages)
	p.add("storage.filedisk_commit_us", "us", us(commit), 1)
	p.add("storage.filedisk_checkpoint_ms", "ms", ms(checkpoint), 1)
	p.add("storage.filedisk_reopen_ms", "ms", ms(reopen), 1)
	p.add("storage.wal_bytes_per_page_byte", "ratio", float64(walBytes)/float64(pages*len(page)), pages)
}

// privatePool is a pool of its own over an in-memory disk, so a probe's
// traffic is all its own.
func privatePool(capacity int) *buffer.Pool {
	return buffer.NewPool(storage.NewDiskManager(0), capacity, sim.NewMeter())
}

func (p *prober) btreeProbes() {
	if p.err != nil {
		return
	}
	n := p.n(5000)
	entries := make([]btree.Entry, n)
	order := make([]int, n)
	for i := range entries {
		entries[i] = btree.Entry{Key: tuple.EncodeKey(nil, tuple.NewInt(int64(i))), RID: storage.RID{Page: int32(i / 100), Slot: int32(i % 100)}}
		order[i] = i
	}
	sim.NewRand(3).Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })

	var pool *buffer.Pool
	var tree *btree.BTree
	fresh := func() (err error) {
		pool = privatePool(hotPoolPages)
		tree, err = btree.New(pool, storage.DefaultPageSize)
		return err
	}
	p.per("btree.insert_ns_per_key", "ns", n, func() error {
		if err := fresh(); err != nil {
			return err
		}
		for _, i := range order {
			if err := tree.Insert(entries[i].Key, entries[i].RID); err != nil {
				return err
			}
		}
		return nil
	})
	p.per("btree.bulkload_ns_per_key", "ns", n, func() error {
		if err := fresh(); err != nil {
			return err
		}
		return tree.BulkLoad(entries)
	})
	if p.err != nil {
		return
	}
	visit := func([]byte, storage.RID) error { return nil }
	var fetches int64
	p.per("btree.lookup_ns", "ns", n, func() error {
		before := pool.Stats().Fetches
		for _, i := range order {
			k := btree.Exact(entries[i].Key)
			if err := tree.Scan(k, k, visit); err != nil {
				return err
			}
		}
		fetches = pool.Stats().Fetches - before
		return nil
	})
	p.add("btree.pages_per_lookup", "count", float64(fetches)/float64(n), n)
	p.per("btree.range_ns_per_entry", "ns", n, func() error {
		return tree.Scan(btree.Unbounded, btree.Unbounded, visit)
	})
}

func (p *prober) bufferProbes() {
	if p.err != nil {
		return
	}
	const capacity = 64
	pool := privatePool(capacity)
	ids := make([]storage.PageID, 4*capacity)
	for i := range ids {
		id, _, err := pool.New()
		if err != nil {
			p.err = fmt.Errorf("buffer: %w", err)
			return
		}
		pool.Unpin(id, true)
		ids[i] = id
	}
	rounds := p.n(200)
	touch := func(set []storage.PageID) error {
		for r := 0; r < rounds; r++ {
			for _, id := range set {
				if _, err := pool.Get(id); err != nil {
					return err
				}
				pool.Unpin(id, false)
			}
		}
		return nil
	}
	// Cycling through four times the capacity in LRU order misses every time;
	// staying inside half of it hits every time after the first round.
	p.per("buffer.get_miss_ns", "ns", rounds*len(ids), func() error { return touch(ids) })
	hot := ids[:capacity/2]
	if err := touch(hot); err != nil {
		p.err = err
		return
	}
	p.per("buffer.get_hit_ns", "ns", rounds*len(hot), func() error { return touch(hot) })
	p.per("buffer.evictall_us", "us", 1, func() error {
		if err := touch(ids[:capacity]); err != nil {
			return err
		}
		return pool.EvictAll()
	})
}

func (p *prober) coreProbes(finals []trace.Query) {
	if p.err != nil {
		return
	}
	keys := make([]string, len(finals))
	for i, q := range finals {
		keys[i] = core.FormKey(q.Graph, q.Projs)
	}
	prev := func(i int) string {
		if i == 0 {
			return ""
		}
		return keys[i-1]
	}
	pred := core.NewPredictor(core.DefaultPredictorConfig())
	p.per("core.predictor_observe_us", "us", len(finals), func() error {
		for i, q := range finals {
			pred.ObserveFinal([]string{q.Graph.Key()}, prev(i), q.Graph, q.Projs)
		}
		return nil
	})
	p.per("core.predictor_predict_us", "us", len(finals), func() error {
		for i, q := range finals {
			probeSink += uint64(len(pred.Predict(q.Graph.Key(), prev(i))))
		}
		return nil
	})
	learner := core.NewLearner(core.DefaultLearnerConfig())
	p.per("core.learner_update_us", "us", len(finals), func() error {
		for _, q := range finals {
			learner.ObserveFormulation(q.Graph.Selections(), q.Graph.Joins(), q.Graph)
		}
		return nil
	})
	answers := core.NewAnswerCache(obs.NewRegistry(), 0)
	schema := tuple.NewSchema(tuple.Column{Name: "k", Kind: tuple.KindInt})
	rows := make([]tuple.Row, 100)
	for i := range rows {
		rows[i] = tuple.Row{tuple.NewInt(int64(i))}
	}
	versions := map[string]uint64{"lineitem": 1}
	p.per("core.answers_put_us", "us", len(keys), func() error {
		for _, k := range keys {
			answers.Put(k, rows, schema, time.Second, 1, versions)
		}
		return nil
	})
	current := func(string) uint64 { return 1 }
	p.per("core.answers_get_us", "us", len(keys), func() error {
		for _, k := range keys {
			if _, _, _, ok := answers.Get(k, current); !ok {
				return fmt.Errorf("answer %q missing", k)
			}
		}
		return nil
	})
}

func (p *prober) smallProbes(env *harness.Env) {
	n := p.n(1 << 20)
	counter := obs.NewRegistry().Counter("probe")
	p.per("obs.counter_inc_ns", "ns", n, func() error {
		for i := 0; i < n; i++ {
			counter.Inc()
		}
		return nil
	})
	p.per("obs.snapshot_us", "us", 1, func() error {
		probeSink += uint64(len(env.Eng.Metrics().Snapshot().Counters))
		return nil
	})
	meter := sim.NewMeter()
	p.per("sim.meter_charge_ns", "ns", n, func() error {
		for i := 0; i < n; i++ {
			meter.ChargeTuples(1)
		}
		return nil
	})
	runtime.KeepAlive(meter)
}
