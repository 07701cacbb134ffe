package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"specdb/internal/harness"
	"specdb/internal/sim"
	"specdb/internal/tpch"
	"specdb/internal/trace"
)

const (
	scaleName = "100MB"
	dataSeed  = 42
	// referenceSeed is the seed of BENCH_spec.json: -corpus 7 generates its
	// corpus and -seed 7 replays the traces in generation order.
	referenceSeed  = 7
	referenceUsers = 3
	// hotPoolPages holds the whole 145-page dataset.
	hotPoolPages = 512
)

// referenceSeconds is the run length the pass counts below are chosen for.
const referenceSeconds = 15

// workload is one configuration of the replay. passes is K, the number of
// timed passes (pairs of a 1-client and a W-client pass on concurrent_hot), at
// -seconds 15; K scales with -seconds. The counts spend the contract's time
// cap: a run of each workload, set-up and oracle included, takes about as long.
type workload struct {
	name       string
	speculate  bool
	predict    bool
	cold       bool // ColdStart before each trace
	concurrent bool
	poolPages  int
	passes     int
}

// concurrent_hot runs with speculation off: concurrent Speculators on one
// engine fail now and then ("catalog: no table" out of OnEvent/OnGo, when
// CostModel.Score plans without the statement lock while another session
// drops a view it matched), and a workload must not have failing ops.
var workloads = []workload{
	{name: "normal_replay", cold: true, poolPages: harness.PoolPages32MB, passes: 3},
	{name: "spec_replay", speculate: true, cold: true, poolPages: harness.PoolPages32MB, passes: 2},
	{name: "predict_replay", speculate: true, predict: true, cold: true, poolPages: harness.PoolPages32MB, passes: 1},
	{name: "concurrent_hot", concurrent: true, poolPages: hotPoolPages, passes: 2},
}

// k is the pass count at a run length.
func (wl workload) k(seconds float64) int {
	return max(1, int(math.Round(float64(wl.passes)*seconds/referenceSeconds)))
}

func workloadByName(name string) (workload, bool) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, true
		}
	}
	return workload{}, false
}

// params is one run's inputs.
type params struct {
	seed     uint64  // replay order of the corpus' traces (not on predict_replay)
	corpus   uint64  // trace-generator seed
	seconds  float64 // measuring time; sets K
	traced   bool
	sessions int // clients of a concurrent pass (W)
	setups   int // fresh set-ups timed per run (at least 2: the workload's and the oracle's)
	// users and queries shape the corpus; queries 0 means the generator's own
	// 36..48 per user (the reference corpus), otherwise one task of that many.
	users, queries int
	probeScale     float64 // iteration-count multiplier of the layer probes
	root           string  // repository root (BENCH_spec.json)
	outDir         string  // span files
	errw           io.Writer
}

func (p params) reference() bool {
	return p.corpus == referenceSeed && p.users == referenceUsers && p.queries == 0
}

// metric is one reported number; n is how many samples it aggregates.
type metric struct {
	name, unit string
	value      float64
	n          int
}

// result is one workload's run.
type result struct {
	workload  string
	metrics   []metric // end-to-end (untraced run) or per-layer (traced run)
	attempted int
	failed    int
	problems  []string // reasons the run is not correct
}

func (r *result) add(name, unit string, value float64, n int) {
	r.metrics = append(r.metrics, metric{name, unit, value, n})
}

func (r *result) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

// corpus is the replayed input: traces from the corpus seed, their order from
// the run seed, and the speculation-off answer of every GO.
type corpus struct {
	traces []*trace.Trace
	order  []int
	oracle [][]uint64
	isGo   []bool // per op, in replay order
	gos    int
}

// buildCorpus generates the traces and fixes their replay order. The seed
// shuffles the order only where traces are independent of each other; on
// predict_replay the predictor, learner and answer cache carry from trace to
// trace, a different order is different work, and every seed replays the
// generation order.
func buildCorpus(p params, shuffle bool) (*corpus, error) {
	c := &corpus{}
	var err error
	if p.queries == 0 {
		c.traces, err = trace.GenerateCorpus(tpch.Vocabulary(), p.users, p.corpus)
		if err != nil {
			return nil, err
		}
	} else {
		for i := 0; i < p.users; i++ {
			cfg := trace.DefaultGenConfig(fmt.Sprintf("user%02d", i+1), p.corpus+uint64(i)*1000003)
			cfg.NumQueries, cfg.NumTasks = p.queries, 1
			t, err := trace.Generate(tpch.Vocabulary(), cfg)
			if err != nil {
				return nil, err
			}
			c.traces = append(c.traces, t)
		}
	}
	c.order = make([]int, len(c.traces))
	for i := range c.order {
		c.order[i] = i
	}
	if shuffle && p.seed != referenceSeed {
		sim.NewRand(p.seed).Shuffle(len(c.order), func(i, j int) { c.order[i], c.order[j] = c.order[j], c.order[i] })
	}
	for _, ti := range c.order {
		for _, ev := range c.traces[ti].Events {
			c.isGo = append(c.isGo, ev.Kind == trace.EvGo)
			if ev.Kind == trace.EvGo {
				c.gos++
			}
		}
	}
	return c, nil
}

// computeOracle answers every GO with speculation off on env, once per run
// and outside every timed phase.
func (c *corpus) computeOracle(env *harness.Env, errw io.Writer) error {
	r := newReplayer(workload{name: "oracle", cold: true}, env, c, errw)
	d := r.replay(0, client{label: "oracle"})
	if d.failed > 0 {
		return fmt.Errorf("oracle replay failed on %d ops", d.failed)
	}
	c.oracle = make([][]uint64, len(c.traces))
	next := 0
	for _, ti := range c.order {
		n := c.traces[ti].NumQueries()
		c.oracle[ti] = d.keys[next : next+n]
		next += n
	}
	return nil
}

// passes is what the passes of one kind (traced or not, one client or W)
// produced.
type passes struct {
	data  [][]*passData // [pass][client]
	costs []passCost
}

func (ps *passes) add(d []*passData, c passCost) {
	ps.data = append(ps.data, d)
	ps.costs = append(ps.costs, c)
}

// walls is each pass's per-op walls of client 0.
func (ps *passes) walls() [][]time.Duration {
	out := make([][]time.Duration, len(ps.data))
	for i, d := range ps.data {
		out[i] = d[0].wall
	}
	return out
}

func (ps *passes) bestWall() time.Duration {
	best := time.Duration(math.MaxInt64)
	for _, c := range ps.costs {
		best = min(best, c.wall)
	}
	return best
}

// run is the state of one workload's run.
type run struct {
	wl      workload
	p       params
	corpus  *corpus
	rep     *replayer
	setupS  float64
	probeMs []float64 // env probe before every pass
	ring    []int32
	nextID  int
	epoch   time.Time
	recs    []*recorder

	// 1-client and W-client passes, untraced and traced.
	single, singleTraced, multi, multiTraced passes
	measured                                 []*passData // every 1-client pass after pass 0, for the repeat check
	attempted, failed                        int
}

func runWorkload(wl workload, p params) (*result, error) {
	r := &run{wl: wl, p: p, epoch: time.Now(), ring: probeRing()}
	k := wl.k(p.seconds)
	if p.traced {
		k = min(k, 2)
	}

	scale, err := tpch.ScaleByName(scaleName)
	if err != nil {
		return nil, err
	}
	shards := 1
	if wl.concurrent {
		shards = p.sessions
	}
	// Every set-up is timed; the first serves the workload, the second the
	// oracle, the rest are dropped.
	var env, oracleEnv *harness.Env
	var setupTimes []float64
	for i := 0; i < p.setups; i++ {
		runtime.GC()
		t0 := time.Now()
		fresh, err := harness.NewEnv(harness.EnvConfig{Scale: scale, Seed: dataSeed, BufferPoolPages: wl.poolPages, PoolShards: shards})
		if err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		switch i {
		case 0:
			env = fresh
		case 1:
			oracleEnv = fresh
		}
	}
	r.setupS = medianFloat(setupTimes)

	if r.corpus, err = buildCorpus(p, !wl.predict); err != nil {
		return nil, err
	}
	if err := r.corpus.computeOracle(oracleEnv, p.errw); err != nil {
		return nil, err
	}
	r.rep = newReplayer(wl, env, r.corpus, p.errw)
	basePages := env.Eng.TotalDataPages()

	// Pass 0: the training pass of predict_replay, which is part of its
	// set-up, and an untimed warm-up everywhere else.
	_, c := r.pass(1, false)
	if wl.predict {
		r.setupS += c.wall.Seconds()
	}
	for i := 0; i < k; i++ {
		r.single.add(r.pass(1, false))
		if p.traced {
			r.singleTraced.add(r.pass(1, true))
		}
		if wl.concurrent {
			r.multi.add(r.pass(p.sessions, false))
			if p.traced {
				r.multiTraced.add(r.pass(p.sessions, true))
			}
		}
	}
	r.ring = nil // the probe's 4 MiB are the driver's, not the engine's
	runtime.GC()
	runtime.GC()
	liveHeapMB := float64(readMem().HeapAlloc) / 1e6

	res := &result{workload: wl.name, attempted: r.attempted, failed: r.failed}
	r.checkRepeats(res)
	r.checkPins(res)
	if !p.traced {
		r.endToEnd(res, liveHeapMB)
		return res, nil
	}
	r.layers(res, basePages)
	path := filepath.Join(p.outDir, wl.name+".trace.json")
	if err := writeChromeTrace(path, wl.name, r.recs); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	probes, err := runProbes(p.probeScale, p.outDir)
	if err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	res.metrics = append(res.metrics, probes...)
	return res, nil
}

// pass runs one measured pass with n clients and books its ops.
func (r *run) pass(n int, traced bool) ([]*passData, passCost) {
	r.probeMs = append(r.probeMs, ms(envProbe(r.ring)))
	id := r.nextID
	r.nextID++
	var recs []*recorder
	if traced {
		for w := 0; w < n; w++ {
			recs = append(recs, newRecorder(r.epoch, w))
		}
		r.recs = append(r.recs, recs...)
	}
	var data []*passData
	cost := r.rep.measure(func() {
		if r.wl.concurrent {
			data = r.rep.replayConcurrent(id, n, recs)
			return
		}
		cl := client{label: fmt.Sprintf("p%d", id)}
		if traced {
			cl.rec = recs[0]
		}
		data = []*passData{r.rep.replay(id, cl)}
	})
	for _, d := range data {
		r.attempted += len(d.wall)
		r.failed += d.failed
	}
	if n == 1 && id > 0 {
		r.measured = append(r.measured, data[0])
	}
	return data, cost
}

// checkRepeats enforces the noise protocol's premise: every measured pass did
// the same work as the first. Answers must repeat everywhere; the simulated
// clock and the speculator's counters too, except on predict_replay, whose
// answer cache deliberately carries over between passes. Pass 0 is exempt: the
// first trace replayed on a fresh engine can speculate differently than in the
// steady state, and it is the pass that fills concurrent_hot's pool.
func (r *run) checkRepeats(res *result) {
	first := r.measured[0]
	strict := !r.wl.predict
	for i, d := range r.measured[1:] {
		if !reflect.DeepEqual(d.keys, first.keys) {
			res.problems = append(res.problems, fmt.Sprintf("pass %d: answers differ from pass 1", i+2))
		}
		if strict && !reflect.DeepEqual(d.simS, first.simS) {
			res.problems = append(res.problems, fmt.Sprintf("pass %d: simulated GO durations differ from pass 1", i+2))
		}
		if strict && d.stats != first.stats {
			res.problems = append(res.problems, fmt.Sprintf("pass %d: core.Stats differ from pass 1", i+2))
		}
	}
}

// benchSpec is the part of BENCH_spec.json the benchmark is pinned to.
type benchSpec struct {
	SpecOffTotalS   float64 `json:"spec_off_total_s"`
	SpecOnTotalS    float64 `json:"spec_on_total_s"`
	PredictedGoRate float64 `json:"predicted_go_rate"`
}

// checkPins ties the wall-clock benchmark to the reproduction: on the
// reference corpus the simulated totals must be BENCH_spec.json's. The
// predictor's rate is that of harness.RunPredictBench's replay pass.
func (r *run) checkPins(res *result) {
	if !r.p.reference() || r.wl.concurrent {
		return
	}
	data, err := os.ReadFile(filepath.Join(r.p.root, "BENCH_spec.json"))
	if err != nil {
		res.problems = append(res.problems, fmt.Sprintf("reading the pinned reproduction: %v", err))
		return
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		res.problems = append(res.problems, fmt.Sprintf("BENCH_spec.json: %v", err))
		return
	}
	pin := func(what string, got, want float64) {
		if math.Abs(got-want) > 1e-9*math.Abs(want) {
			res.problems = append(res.problems, fmt.Sprintf("%s is %.9g, BENCH_spec.json pins %.9g", what, got, want))
		}
	}
	d := r.single.data[0][0] // first measured pass
	var simTotal float64
	for _, s := range d.simS {
		simTotal += s
	}
	switch {
	case !r.wl.speculate:
		pin("simulated total with speculation off", simTotal, spec.SpecOffTotalS)
	case !r.wl.predict:
		pin("simulated total with speculation on", simTotal, spec.SpecOnTotalS)
	default:
		pin("predicted GO rate", float64(d.stats.PredictedGos)/float64(r.corpus.gos), spec.PredictedGoRate)
		if d.stats.PredictEquivFailures != 0 {
			res.problems = append(res.problems, fmt.Sprintf("%d predicted answers failed the equivalence check", d.stats.PredictEquivFailures))
		}
	}
}

// endToEnd reports what a user of the system sees, from the untraced passes.
func (r *run) endToEnd(res *result, liveHeapMB float64) {
	opMin := perOpMin(r.single.walls())
	gos := pick(opMin, r.corpus.isGo, true)
	edits := pick(opMin, r.corpus.isGo, false)
	k := len(r.single.data)

	res.add("setup_s", "s", r.setupS, r.p.setups)
	res.add("go_wall_ms_mean", "ms", meanMs(gos), len(gos)*k)
	res.add("go_wall_ms_tail10", "ms", tail10Ms(gos), len(gos)*k)
	res.add("edit_wall_ms_mean", "ms", meanMs(edits), len(edits)*k)
	res.add("edit_wall_ms_tail10", "ms", tail10Ms(edits), len(edits)*k)
	if r.wl.concurrent {
		w := r.p.sessions
		res.add("gos_per_s", "1/s", float64(w*r.corpus.gos)/r.multi.bestWall().Seconds(), len(r.multi.costs))
	} else {
		res.add("gos_per_s", "1/s", opsPerSecond(len(gos), opMin), len(opMin)*k)
	}
	var alloc uint64
	goCount := 0
	for _, c := range r.single.costs {
		alloc += c.mem.allocBytes
		goCount += r.corpus.gos
	}
	for _, c := range r.multi.costs {
		alloc += c.mem.allocBytes
		goCount += r.corpus.gos * r.p.sessions
	}
	res.add("alloc_mb_per_go", "MB", float64(alloc)/1e6/float64(goCount), goCount)
	res.add("live_heap_mb", "MB", liveHeapMB, 1)
}

// probeRing is a random single-cycle permutation of 4 MiB of int32s, the
// pointer chase of the environment probe.
func probeRing() []int32 {
	const n = 1 << 20
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	sim.NewRand(1).Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	ring := make([]int32, n)
	for i := 0; i < n; i++ {
		ring[perm[i]] = perm[(i+1)%n]
	}
	return ring
}

var probeSink uint64

// envProbe times a fixed amount of arithmetic and dependent loads that touch
// nothing of the system under test. It is reported, never used: a slow phase
// of the machine shows here beside a run that disagrees.
func envProbe(ring []int32) time.Duration {
	t0 := time.Now()
	x, at := uint64(88172645463325252), int32(0)
	for i := 0; i < 1<<20; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		at = ring[at]
	}
	probeSink += x + uint64(at)
	return time.Since(t0)
}
