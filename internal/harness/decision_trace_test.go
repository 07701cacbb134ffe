package harness

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"specdb/internal/core"
	"specdb/internal/engine"
	"specdb/internal/fault"
	"specdb/internal/golden"
	"specdb/internal/tpch"
	"specdb/internal/trace"
)

// TestDecisionTrace pins every speculation decision of five configurations
// that the aggregate outputs (f4/t51, a4, BENCH_spec.json) never reach
// together: which job was issued when, how and when it ended, and what the
// counters and the waste ledger said afterwards — and, the one quiesce
// condition, that the ledger is empty and unmisused after every Shutdown. The
// goldens under testdata/
// were generated before the job-lifecycle refactor (DESIGN.md §16), and
// failure_policy's before the breakers moved into internal/core, and all were
// re-pinned when index scans began reading the heap in page order; a
// Speculator change that alters any decision shows up as a diff here.
// Regenerate with: go test ./internal/harness -run DecisionTrace -update
func TestDecisionTrace(t *testing.T) {
	traces, err := trace.GenerateCorpus(tpch.Vocabulary(), 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	scale, err := tpch.ScaleByName("100MB")
	if err != nil {
		t.Fatal(err)
	}
	chaos := DefaultChaosConfig(len(traces), "")

	configs := []struct {
		name string
		env  EnvConfig
		run  func(t *testing.T, d *decisionDump, eng *engine.Engine)
	}{
		{"default", EnvConfig{}, func(t *testing.T, d *decisionDump, eng *engine.Engine) {
			cfg := core.DefaultConfig()
			cfg.Ledger = core.NewLedger(eng.Metrics(), false)
			learner := func() *core.Learner { return core.NewLearner(core.DefaultLearnerConfig()) }
			d.replaySerial(t, eng, traces, cfg, "spec", learner)
		}},
		{"wide_cse_budget", EnvConfig{}, func(t *testing.T, d *decisionDump, eng *engine.Engine) {
			cfg := core.DefaultConfig()
			cfg.Workers = 2
			cfg.BudgetPages = 10
			cfg.Ledger = core.NewLedger(eng.Metrics(), true)
			// Every user twice, at the same instants: the second copy finds the
			// first one's builds in flight, then adopts them.
			d.replayConcurrent(t, eng, append(traces[:len(traces):len(traces)], traces...), cfg)
		}},
		{"chaos_governor", EnvConfig{BufferPoolPages: chaos.PoolPages, PoolShards: chaos.PoolShards, Fault: chaos.Fault},
			func(t *testing.T, d *decisionDump, eng *engine.Engine) {
				cfg := chaosCore(chaos, eng)
				d.replayConcurrent(t, eng, traces, cfg)
			}},
		{"failure_policy", EnvConfig{BufferPoolPages: chaos.PoolPages, PoolShards: chaos.PoolShards, Fault: failingBuilds},
			func(t *testing.T, d *decisionDump, eng *engine.Engine) {
				cfg := chaosCore(chaos, eng)
				d.replayFailing(t, eng, traces, cfg)
			}},
		{"predictor_trained", EnvConfig{}, func(t *testing.T, d *decisionDump, eng *engine.Engine) {
			cfg := core.DefaultConfig()
			cfg.Predictor = core.NewPredictor(core.DefaultPredictorConfig())
			cfg.Answers = core.NewAnswerCache(eng.Metrics(), 0)
			cfg.Ledger = core.NewLedger(eng.Metrics(), false)
			shared := core.NewLearner(core.DefaultLearnerConfig())
			learner := func() *core.Learner { return shared }
			d.replaySerial(t, eng, traces, cfg, "train", learner)
			d.replaySerial(t, eng, traces, cfg, "replay", learner)
		}},
	}
	for _, c := range configs {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel() // each configuration has its own engine
			c.env.Scale, c.env.Seed = scale, 42
			env, err := NewEnv(c.env)
			if err != nil {
				t.Fatal(err)
			}
			d := &decisionDump{}
			c.run(t, d, env.Eng)
			d.counters(env.Eng)
			if n := env.Eng.Tracer().Dropped(); n != 0 {
				t.Fatalf("tracer dropped %d spans: the dump is incomplete", n)
			}
			for _, d := range dumpDisagreements(t, d.b.String()) {
				t.Errorf("one event, two counts: %s", d)
			}
			golden.Check(t, filepath.Join("testdata", c.name+".decisions.golden"), d.b.String())
		})
	}
}

// decisionDump accumulates one configuration's golden text.
type decisionDump struct {
	b     strings.Builder
	spans int // tracer spans already written
}

// jobs writes one line per manip.* span committed since the last call, in
// commit order: span name, sim start, sim end, then every annotation (key,
// table, source, outcome, error) as the Speculator attached them.
func (d *decisionDump) jobs(eng *engine.Engine) {
	all := eng.Tracer().Spans()
	for _, s := range all[d.spans:] {
		if !strings.HasPrefix(s.Name, "manip.") {
			continue
		}
		fmt.Fprintf(&d.b, "%-20s %15d %15d", s.Name, int64(s.Start), int64(s.End))
		for _, a := range s.Attrs {
			fmt.Fprintf(&d.b, " %s=%s", a.Key, a.Value)
		}
		d.b.WriteByte('\n')
	}
	d.spans = len(all)
}

// quiesced requires the ledger the shut-down sessions wrote to be empty, and
// never to have been asked to end, finish or release what the asker did not
// hold.
func quiesced(t *testing.T, l *core.Ledger) {
	t.Helper()
	if n, m := l.Len(), l.Misuses(); n != 0 || m != 0 {
		t.Errorf("ledger holds %d entries after Shutdown, %d misuses", n, m)
	}
}

// session writes one speculator's final counters and waste ledger.
func (d *decisionDump) session(label string, st core.Stats, ledger map[string]int) {
	fmt.Fprintf(&d.b, "stats %s %+v\n", label, st)
	builds := make([]string, 0, len(ledger))
	for id := range ledger {
		builds = append(builds, id)
	}
	sort.Strings(builds)
	for _, id := range builds {
		fmt.Fprintf(&d.b, "waste %s %s x%d\n", label, id, ledger[id])
	}
}

// counters writes the final value of every lifecycle-related registry counter.
func (d *decisionDump) counters(eng *engine.Engine) {
	snap := eng.Metrics().Snapshot().Counters
	names := make([]string, 0, len(snap))
	for n := range snap {
		for _, p := range []string{"spec.", "breaker.", "gbreaker.", "sched.", "governor."} {
			if strings.HasPrefix(n, p) {
				names = append(names, n)
			}
		}
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&d.b, "counter %s %d\n", n, snap[n])
	}
}

// replaySerial replays the traces one after another, one speculator each (the
// single-user experiments' shape), dumping after every trace.
func (d *decisionDump) replaySerial(t *testing.T, eng *engine.Engine, traces []*trace.Trace, cfg core.Config, label string, learner func() *core.Learner) {
	t.Helper()
	for i, tr := range traces {
		cfg.NamePrefix = fmt.Sprintf("%s_t%d", label, i)
		so, err := RunTraceWithLearner(eng, i, tr, cfg, learner())
		if err != nil {
			t.Fatal(err)
		}
		quiesced(t, cfg.Ledger)
		fmt.Fprintf(&d.b, "# %s trace %d\n", label, i)
		d.jobs(eng)
		d.session(cfg.NamePrefix, so.FinalStats, so.WasteLedger)
	}
}

// replayConcurrent replays the traces as simultaneous sessions on one engine
// (the multi-user experiments' shape, events merged by timestamp).
func (d *decisionDump) replayConcurrent(t *testing.T, eng *engine.Engine, traces []*trace.Trace, cfg core.Config) {
	t.Helper()
	out, err := RunScaledSessions(eng, traces, cfg)
	if err != nil {
		t.Fatal(err)
	}
	quiesced(t, cfg.Ledger)
	d.jobs(eng)
	for u, st := range out.PerUser {
		d.session(fmt.Sprintf("spec_u%d", u), st, out.WasteLedgers[u])
	}
}

// failingBuilds is the failure_policy configuration's fault mix, armed only
// while sessions handle edits (replayFailing), where speculative builds
// issue. At these rates the pool's retries give up on some builds' page I/O
// (a failure: backoff, abandonment, the session breaker), and slow reads push
// others past their watchdog deadline (a strike on the governor's degraded
// band only). A build reads each heap page of an index scan once, so builds
// do few page I/Os; the rates are high enough that some still fail, and the
// seed is one at which every failure path is reached in one replay (the
// check in replayFailing).
var failingBuilds = fault.Config{
	Seed:                4,
	ReadErrorRate:       0.65,
	WriteErrorRate:      0.65,
	FrameExhaustionRate: 0.65,
	SlowIORate:          0.9,
	SlowIOPenaltyPages:  100,
}

// failingHurry divides every event instant of replayFailing's traces: at an
// eighth of the recorded think times three sessions end enough builds in one
// of the governor's 30 s sampling windows for it to trip.
const failingHurry = 8

// replayFailing is replayConcurrent at failingHurry times the pace, with the
// engine's fault injector armed only around OnEvent: builds issued at an edit
// fail or overrun, while completions and every GO run fault-free, so the
// failure policy is all that the faults move.
func (d *decisionDump) replayFailing(t *testing.T, eng *engine.Engine, traces []*trace.Trace, cfg core.Config) {
	t.Helper()
	if err := eng.ColdStart(); err != nil {
		t.Fatal(err)
	}
	inj := eng.FaultInjector()
	inj.SetArmed(false)
	sps := make([]*core.Speculator, len(traces))
	for u := range traces {
		c := cfg
		c.NamePrefix = fmt.Sprintf("spec_u%d", u)
		sps[u] = core.NewSpeculator(eng, core.NewLearner(core.DefaultLearnerConfig()), c)
	}
	type tagged struct {
		user int
		ev   trace.Event
	}
	var all []tagged
	for u, tr := range traces {
		for _, ev := range tr.Events {
			ev.AtSeconds /= failingHurry
			all = append(all, tagged{u, ev})
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].ev.AtSeconds < all[j].ev.AtSeconds })
	for _, it := range all {
		at := it.ev.At()
		for _, sp := range sps {
			if err := sp.Advance(at); err != nil {
				t.Fatal(err)
			}
		}
		var err error
		if it.ev.Kind == trace.EvGo {
			_, _, err = sps[it.user].OnGo(at)
		} else {
			inj.SetArmed(true)
			_, err = sps[it.user].OnEvent(it.ev, at)
			inj.SetArmed(false)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	stats, waste := make([]core.Stats, len(sps)), make([]map[string]int, len(sps))
	for u, sp := range sps {
		stats[u], waste[u] = sp.Stats(), sp.WasteCharges()
		if err := sp.Shutdown(); err != nil {
			t.Fatal(err)
		}
	}
	quiesced(t, cfg.Ledger)
	sum, trips := SumStatsAll(stats), eng.Metrics().Counter("gbreaker.opened").Value()
	if sum.Failed == 0 || sum.Abandoned == 0 || sum.BreakerTrips == 0 || sum.BreakerResumes == 0 || trips == 0 {
		t.Errorf("a failure path went untried: %+v, gbreaker.opened %d", sum, trips)
	}
	d.jobs(eng)
	for u := range sps {
		d.session(fmt.Sprintf("spec_u%d", u), stats[u], waste[u])
	}
	fmt.Fprintf(&d.b, "degraded %s\n", cfg.Governor.DegradedTime(all[len(all)-1].ev.At()))
}
