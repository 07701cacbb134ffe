package main

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"specdb/internal/buffer"
	"specdb/internal/core"
	"specdb/internal/engine"
	"specdb/internal/harness"
	"specdb/internal/obs"
	"specdb/internal/plan"
	"specdb/internal/qgraph"
	"specdb/internal/sim"
	"specdb/internal/trace"
)

// pendingJobs schedules manipulation completions by CompletesAt, first issued
// first — the queue harness.runTraceSpec and specdb.Session both keep.
type pendingJobs struct{ jobs []*core.Job }

func (p *pendingJobs) add(jobs ...*core.Job) {
	for _, job := range jobs {
		i := len(p.jobs)
		for i > 0 && p.jobs[i-1].CompletesAt > job.CompletesAt {
			i--
		}
		p.jobs = append(p.jobs, nil)
		copy(p.jobs[i+1:], p.jobs[i:])
		p.jobs[i] = job
	}
}

func (p *pendingJobs) remove(jobs ...*core.Job) {
	for _, job := range jobs {
		for i, j := range p.jobs {
			if j == job {
				p.jobs = append(p.jobs[:i], p.jobs[i+1:]...)
				break
			}
		}
	}
}

func (p *pendingJobs) apply(out core.EventOutcome) {
	p.remove(out.Canceled...)
	p.add(out.Issued...)
}

// session replays one trace: through a Speculator, or with speculation off
// on a bare canvas (trace.State) whose graph is bound and run at GO.
type session struct {
	eng     *engine.Engine
	rec     *recorder
	sp      *core.Speculator
	pending pendingJobs
	canvas  *trace.State
}

// advance completes every manipulation due by t.
func (s *session) advance(t sim.Time) error {
	for len(s.pending.jobs) > 0 && s.pending.jobs[0].CompletesAt <= t {
		job := s.pending.jobs[0]
		s.pending.remove(job)
		i := s.rec.begin("core.Complete")
		next, err := s.sp.Complete(job, job.CompletesAt)
		s.rec.end(i)
		if err != nil {
			return err
		}
		s.pending.add(next...)
	}
	return nil
}

func (s *session) edit(ev trace.Event) error {
	if s.sp == nil {
		return s.canvas.Apply(ev)
	}
	at := ev.At()
	if err := s.advance(at); err != nil {
		return err
	}
	i := s.rec.begin("core.OnEvent")
	out, err := s.sp.OnEvent(ev, at)
	s.rec.end(i)
	if err != nil {
		return err
	}
	s.pending.apply(out)
	return nil
}

// graph is the canvas as the next GO would submit it.
func (s *session) graph() *qgraph.Graph {
	if s.sp == nil {
		return s.canvas.Graph
	}
	return s.sp.Partial()
}

func (s *session) goQuery(at sim.Time) (*engine.Result, error) {
	if s.sp == nil {
		i := s.rec.begin("plan.BindGraphProjections")
		q, err := plan.BindGraphProjections(s.eng.Catalog, s.canvas.Graph, s.canvas.Projs)
		s.rec.end(i)
		if err != nil {
			return nil, err
		}
		i = s.rec.begin("engine.RunQuery")
		res, err := s.eng.RunQuery(q)
		s.rec.end(i)
		return res, err
	}
	if err := s.advance(at); err != nil {
		return nil, err
	}
	i := s.rec.begin("core.OnGo")
	res, out, err := s.sp.OnGo(at)
	s.rec.end(i)
	s.pending.apply(out)
	return res, err
}

// passData is what one replay of the corpus by one client produced, ops in
// replay order.
type passData struct {
	wall    []time.Duration // per op
	simS    []float64       // per GO: simulated seconds
	keys    []uint64        // per GO: harness.RowSetKey
	tuples  int64           // Σ Result.Work.Tuples over GOs
	stats   core.Stats      // Σ post-Shutdown speculator counters
	wasted  int             // issued builds charged as waste
	failed  int             // ops that errored or answered wrongly
	peak    int             // highest engine.TotalDataPages seen (traced only)
	planDup time.Duration   // Σ duplicate PlanGraph before GOs (traced only)
}

// passCost is what a pass cost the process and the engine, read around it.
type passCost struct {
	wall  time.Duration
	pool  buffer.Stats // traffic over the pass
	stmts int64        // engine statements over the pass
	mem   memDelta
}

// memDelta is the Go runtime's work over a pass.
type memDelta struct {
	allocBytes, mallocs uint64
	gcCycles            uint32
	gcPause             time.Duration
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func memSince(before runtime.MemStats) memDelta {
	after := readMem()
	return memDelta{
		allocBytes: after.TotalAlloc - before.TotalAlloc,
		mallocs:    after.Mallocs - before.Mallocs,
		gcCycles:   after.NumGC - before.NumGC,
		gcPause:    time.Duration(after.PauseTotalNs - before.PauseTotalNs),
	}
}

// replayer holds what every pass of one workload shares.
type replayer struct {
	wl      workload
	eng     *engine.Engine
	traces  []*trace.Trace
	order   []int      // trace replay order, from -seed
	oracle  [][]uint64 // [trace][go] speculation-off answer keys
	base    core.Config
	learner *core.Learner // shared across traces and passes (predict_replay)
	stmts   *obs.Counter
	errMu   sync.Mutex // concurrent clients report failures to one writer
	errw    io.Writer
}

func newReplayer(wl workload, env *harness.Env, c *corpus, errw io.Writer) *replayer {
	r := &replayer{wl: wl, eng: env.Eng, traces: c.traces, order: c.order, oracle: c.oracle, errw: errw,
		stmts: env.Eng.Metrics().Counter("engine.statements")}
	if wl.speculate {
		r.base = core.DefaultConfig()
	}
	if wl.predict {
		r.base.Predictor = core.NewPredictor(core.DefaultPredictorConfig())
		r.base.Answers = core.NewAnswerCache(env.Eng.Metrics(), 0)
		r.learner = core.NewLearner(core.DefaultLearnerConfig())
	}
	return r
}

// client names one replaying client of a pass: its label (unique table-name
// prefix), how far its trace order is rotated, and its span recorder (nil
// when untraced).
type client struct {
	label  string
	rotate int
	rec    *recorder
}

// replay runs the whole corpus once as one closed-loop client: the next op
// starts when the previous one returned, think time exists only on the
// simulated clock. Answer keys are computed after each op's clock stops.
func (r *replayer) replay(pass int, cl client) *passData {
	d := &passData{}
	rec := cl.rec
	if rec != nil {
		rec.pass, rec.trace, rec.op = int32(pass), -1, -1
	}
	passSpan := rec.begin("pass")
	for k := range r.order {
		r.replayTrace(d, r.order[(k+cl.rotate)%len(r.order)], cl)
	}
	if rec != nil {
		rec.trace, rec.op = -1, -1
		rec.end(passSpan)
	}
	return d
}

// measure runs one pass after a collection, outside any timed op, and
// reports what the pass cost.
func (r *replayer) measure(pass func()) passCost {
	runtime.GC()
	mem := readMem()
	pool := r.eng.Pool.Stats()
	stmts := r.stmts.Value()
	start := time.Now()
	pass()
	return passCost{wall: time.Since(start), mem: memSince(mem), stmts: r.stmts.Value() - stmts,
		pool: poolSince(r.eng.Pool.Stats(), pool)}
}

// poolSince is the pool traffic between two snapshots.
func poolSince(after, before buffer.Stats) buffer.Stats {
	return buffer.Stats{Hits: after.Hits - before.Hits, Misses: after.Misses - before.Misses,
		Writes: after.Writes - before.Writes, Fetches: after.Fetches - before.Fetches}
}

func (r *replayer) replayTrace(d *passData, ti int, cl client) {
	rec := cl.rec
	tr := r.traces[ti]
	if rec != nil {
		rec.trace, rec.op = int32(ti), -1
	}
	traceSpan := rec.begin("trace")
	fail := func(op int, what string, err error) {
		d.failed++
		r.errMu.Lock()
		defer r.errMu.Unlock()
		fmt.Fprintf(r.errw, "FAILED %s %s trace %d op %d (%s): %v\n", r.wl.name, cl.label, ti, op, what, err)
	}
	if r.wl.cold {
		i := rec.begin("engine.ColdStart")
		err := r.eng.ColdStart()
		rec.end(i)
		if err != nil {
			fail(-1, "cold start", err)
		}
	}
	s := &session{eng: r.eng, rec: rec}
	if r.wl.speculate {
		cfg := r.base
		cfg.NamePrefix = fmt.Sprintf("spec_%s_t%d", cl.label, ti)
		learner := r.learner
		if learner == nil {
			learner = core.NewLearner(core.DefaultLearnerConfig())
		}
		s.sp = core.NewSpeculator(r.eng, learner, cfg)
	} else {
		s.canvas = trace.NewState()
	}

	goIdx := 0
	for oi, ev := range tr.Events {
		var before buffer.Stats
		var stmts int64
		opSpan := int32(-1)
		if rec != nil {
			rec.op = int32(oi)
			before, stmts = r.eng.Pool.Stats(), r.stmts.Value()
		}
		if ev.Kind != trace.EvGo {
			opSpan = rec.begin("op.edit")
			t0 := time.Now()
			err := s.edit(ev)
			d.wall = append(d.wall, time.Since(t0))
			if err != nil {
				fail(oi, string(ev.Kind), err)
			}
		} else {
			opSpan = rec.begin("op.go")
			if rec != nil {
				// A second planning of the same canvas, to size the
				// optimizer's share of a GO from outside RunQuery.
				i := rec.begin("engine.PlanGraph.dup")
				_, _ = r.eng.PlanGraph(s.graph()) // timing only; the GO below reports any planning error
				rec.end(i)
				d.planDup += rec.at(i).dur()
			}
			t0 := time.Now()
			res, err := s.goQuery(ev.At())
			d.wall = append(d.wall, time.Since(t0))
			var key uint64
			var simS float64
			switch {
			case err != nil:
				fail(oi, "go", err)
			default:
				key, simS = harness.RowSetKey(res.Rows), res.Duration.Seconds()
				d.tuples += res.Work.Tuples
				if rec != nil {
					rec.at(opSpan).counters.work = res.Work
				}
				if r.oracle != nil && key != r.oracle[ti][goIdx] {
					fail(oi, "go", fmt.Errorf("answer key %#x differs from the speculation-off oracle's %#x", key, r.oracle[ti][goIdx]))
				}
			}
			d.keys = append(d.keys, key)
			d.simS = append(d.simS, simS)
			goIdx++
		}
		if rec != nil {
			c := &rec.at(opSpan).counters
			c.pool = poolSince(r.eng.Pool.Stats(), before)
			c.stmts = r.stmts.Value() - stmts
			d.peak = max(d.peak, r.eng.TotalDataPages())
			rec.end(opSpan)
		}
	}

	if s.sp != nil {
		d.wasted += len(s.sp.WasteCharges())
		if rec != nil {
			rec.op = -1
		}
		i := rec.begin("core.Shutdown")
		err := s.sp.Shutdown()
		rec.end(i)
		if err != nil {
			fail(-1, "shutdown", err)
		}
		st := s.sp.Stats()
		d.stats = harness.SumStatsAll([]core.Stats{d.stats, st})
		if rec != nil {
			rec.at(traceSpan).stats = &st
		}
	}
	rec.end(traceSpan)
}

// replayConcurrent runs one pass with n clients at once on the shared engine,
// client w replaying the corpus rotated by w.
func (r *replayer) replayConcurrent(pass, n int, recs []*recorder) []*passData {
	out := make([]*passData, n)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		cl := client{label: fmt.Sprintf("p%dc%dw%d", pass, n, w), rotate: w}
		if recs != nil {
			cl.rec = recs[w]
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out[w] = r.replay(pass, cl)
		}(w)
	}
	wg.Wait()
	return out
}
