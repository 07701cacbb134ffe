package core

import (
	"fmt"
	"maps"
	"strings"
	"sync"
	"testing"
	"time"

	"specdb/internal/engine"
	"specdb/internal/fault"
	"specdb/internal/qgraph"
	"specdb/internal/sim"
	"specdb/internal/trace"
	"specdb/internal/tuple"
)

// The seed corpus FuzzLifecycle runs as a plain test: lifecycleSeeds
// programs of lifecycleSteps steps each, drawn from sim.Rand. The long form
// is native fuzzing from them (scripts/soak.sh).
const (
	lifecycleSeeds = 24
	lifecycleSteps = 80
	// maxLifecycleSteps bounds one fuzzed program, so no input runs long.
	maxLifecycleSteps = 400
	// slowIOPenalty is the extra page reads a slow miss costs in the fault
	// step's overrunning builds.
	slowIOPenalty = 16
)

// lifecycleProgram is seed's program: two configuration bytes, then three
// bytes per step.
func lifecycleProgram(seed uint64, steps int) []byte {
	r := sim.NewRand(seed)
	prog := make([]byte, 2+3*steps)
	for i := range prog {
		prog[i] = byte(r.Intn(256))
	}
	return prog
}

// FuzzLifecycle drives one to four speculators that share an engine, a
// ledger, an answer cache and a predictor through a byte-coded
// program of edits, GOs, Advance, Close, governor shedding and injected build
// faults, and after every step holds them to a reference model of what must
// be true of every job and every ledger entry (DESIGN.md §16):
//
//   - each job is in exactly one state: outstanding at one speculator, or
//     ended — once, and never outstanding again; a stale completion is
//     refused;
//   - the ledger's in-flight entries are exactly the speculators' outstanding
//     jobs, each under the holder and with the pages the job says; every hold
//     on a ready entry is a live speculator's, carries the entry's table and
//     ranks by its cost, and the ready entries' tables are exactly the views
//     the optimizer can reach (checkHeldViews); nothing was ever misused;
//   - each speculator's ledger pages are its outstanding jobs' and held
//     views' pages, the ledger's footprint and the answer cache's pages are
//     the sums over their entries, no cached answer has more references than
//     sessions that hold it, and the cache is within its cap whenever nothing
//     holds it;
//   - no build is charged to waste twice, across sessions;
//   - the optimizer can reach no view, and the catalog holds no speculative
//     table, that no job or ledger entry accounts for;
//   - under GoContinue a GO ends no job: what was in flight before it runs
//     on at the same CompletesAt and Deadline, and still ends exactly once;
//   - after Close, every job a speculator issued has ended.
func FuzzLifecycle(f *testing.F) {
	for seed := uint64(1); seed <= lifecycleSeeds; seed++ {
		f.Add(lifecycleProgram(seed, lifecycleSteps))
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		lifecycleMu.Lock()
		held := lifecycleHeld[string(prog)]
		lifecycleMu.Unlock()
		if !held {
			newLifecycleRig(t, prog).run()
		}
	})
}

// lifecycleHeld holds, for the life of the test binary, every program
// TestLifecycleSeedsReachEveryTerminal ran to its end with every check of the
// rig passing. Those are FuzzLifecycle's seeds, so its seed corpus does not
// hold the same programs to the same reference model a second time; any
// other input, and every seed when the test did not run first or failed,
// runs.
var (
	lifecycleMu   sync.Mutex
	lifecycleHeld = map[string]bool{}
)

// TestLifecycleSeedsReachEveryTerminal: FuzzLifecycle's committed seeds,
// summed, end jobs in each of the seven terminals, so the seed corpus holds
// every way a job can end to the reference model.
func TestLifecycleSeedsReachEveryTerminal(t *testing.T) {
	var reached [numTerminals]int
	for seed := uint64(1); seed <= lifecycleSeeds; seed++ {
		prog := lifecycleProgram(seed, lifecycleSteps)
		r := newLifecycleRig(t, prog)
		r.run()
		for _, sp := range r.all {
			st := sp.Stats()
			for term := range numTerminals {
				reached[term] += *st.terminal(term)
			}
		}
		if !t.Failed() {
			lifecycleMu.Lock()
			lifecycleHeld[string(prog)] = true
			lifecycleMu.Unlock()
		}
	}
	for term, n := range reached {
		t.Logf("%-20s %d", Terminal(term), n)
		if n == 0 {
			t.Errorf("no seed ends a job %s", Terminal(term))
		}
	}
}

// lifecycleRig is one fuzzed run: the shared substrate, the live speculators
// and the reference model.
type lifecycleRig struct {
	t    *testing.T
	prog []byte
	e    *engine.Engine
	cfg  Config // every speculator's configuration, but its name prefix
	sps  []*Speculator
	all  []*Speculator // every speculator ever opened, for the waste audit
	now  sim.Time

	// pressure is another holder's huge in-flight claim, when set: the
	// governor's signal goes critical and it sheds.
	pressure      AssetKey
	pressured     bool
	pressurePages int

	// slow makes every page miss cost slowIOPenalty extra reads while the
	// fault step installs it in the pool.
	slow *fault.Injector

	// The reference model: every job ever seen outstanding, the ones that
	// ended in the order they did, each speculator's Stats at the previous
	// check, and the jobs whose tables the rig dropped.
	jobs      map[*Job]*lifecycleJob
	ended     []*Job
	last      map[*Speculator]Stats
	sabotaged map[*Job]bool
}

// lifecycleJob is the model's state of one job: the speculator that issued
// it, whether it ran on across a GO, and whether it has ended.
type lifecycleJob struct {
	sp        *Speculator
	continued bool
	ended     bool
}

func newLifecycleRig(t *testing.T, prog []byte) *lifecycleRig {
	if len(prog) < 2 {
		t.Skip("no configuration bytes")
	}
	if n := 2 + 3*maxLifecycleSteps; len(prog) > n {
		prog = prog[:n]
	}
	conf, shape := prog[0], prog[1]
	e := engine.New(engine.Config{BufferPoolPages: 256,
		Fault: fault.Config{Seed: uint64(shape), FrameExhaustionRate: 1}})
	e.FaultInjector().SetArmed(false) // armed only by the fault step
	loadTestEngine(t, e, 300)
	r := &lifecycleRig{t: t, prog: prog[2:], e: e,
		slow: fault.NewInjector(fault.Config{Seed: uint64(shape), SlowIORate: 1, SlowIOPenaltyPages: slowIOPenalty}),
		jobs: map[*Job]*lifecycleJob{}, last: map[*Speculator]Stats{}, sabotaged: map[*Job]bool{}}
	cfg := DefaultConfig()
	cfg.MinBenefit = 0
	cfg.Workers = 1 + int(shape>>4)%2
	cfg.Ledger = NewLedger(e.Metrics(), conf&1 != 0)
	if conf&2 != 0 {
		cfg.Governor = NewGovernor(e.Pool)
	}
	if conf&4 != 0 {
		cfg.Predictor = NewPredictor(DefaultPredictorConfig())
		cfg.Answers = NewAnswerCache(e.Metrics(), 16)
	}
	// One bit picks the GO policy.
	cfg.AtGo = GoPolicy(conf >> 3 & 1)
	if conf&32 != 0 {
		cfg.Ops = OpSet{Materialize: true, Index: true, Histogram: true, Stage: true}
	}
	r.cfg = cfg
	r.pressure = AssetKey{Scope: cfg.Ledger.NewHolder(), Manip: "pressure"}
	r.pressurePages = 100 * e.Pool.Capacity()
	for range 1 + int(shape)%4 {
		r.sps = append(r.sps, r.open())
	}
	return r
}

// open starts a speculator under a name prefix of its own.
func (r *lifecycleRig) open() *Speculator {
	cfg := r.cfg
	cfg.NamePrefix = fmt.Sprintf("fz%d_", len(r.all))
	sp := newSpec(r.e, cfg)
	r.all = append(r.all, sp)
	return sp
}

func (r *lifecycleRig) run() {
	t := r.t
	joins := []qgraph.Join{
		{LeftRel: "R", LeftCol: "a", RightRel: "S", RightCol: "a"},
		{LeftRel: "S", LeftCol: "b", RightRel: "W", RightCol: "b"},
	}
	for step := 0; len(r.prog) >= 3; step++ {
		op, who, arg := r.prog[0], int(r.prog[1])%len(r.sps), r.prog[2]
		r.prog = r.prog[3:]
		r.now = r.now.Add(sim.Duration(1+arg%16) * 2 * time.Millisecond) // a build takes ≈ 10 ms
		sp := r.sps[who]
		sel := selRC(int64(arg % 12))
		if arg >= 128 {
			sel = qgraph.Selection{Rel: "W", Col: "d", Op: tuple.CmpLT, Const: tuple.NewInt(int64(arg%12) * 250)}
		}
		var ev trace.Event
		switch op % 16 {
		case 0, 1, 2, 3:
			ev = evAddSel(sel)
		case 4:
			ev = evRemoveSel(sel)
		case 5:
			ev = evAddJoin(joins[arg%2])
		case 6:
			ev = trace.Event{Kind: trace.EvClear}
		case 7, 8, 9:
			r.advance(sp)
			if !sp.Partial().IsEmpty() {
				r.goQuery(sp, step)
			}
		case 10:
			for _, sp := range r.sps {
				r.advance(sp)
			}
			if arg&1 != 0 {
				// A cold pool: the next builds pay their I/O and run longer.
				if err := r.e.ColdStart(); err != nil {
					t.Fatal(err)
				}
			}
		case 11:
			r.close(sp)
			r.sps[who] = r.open()
		case 12:
			if r.cfg.Governor == nil {
				continue
			}
			if r.pressured {
				r.cfg.Ledger.End(r.pressure, r.pressure.Scope)
			} else {
				r.cfg.Ledger.Claim(r.pressure, r.pressure.Scope, 0, r.pressurePages)
			}
			r.pressured = !r.pressured
			ev = trace.Event{Kind: trace.EvSetProjections} // the next boundary sheds
		case 13:
			r.advance(sp)
			var err error
			if arg&64 != 0 {
				// A build that overruns its deadline: on a cold pool whose
				// every miss is slow, the walk after this edit issues builds
				// that run far past the governor's deadlineFactor × their
				// estimate, so its watchdog ends them (when it is on).
				if err := r.e.ColdStart(); err != nil {
					t.Fatal(err)
				}
				r.e.Pool.SetFaultInjector(r.slow)
				_, err = sp.OnEvent(evAddSel(sel), r.now)
				r.e.Pool.SetFaultInjector(r.e.FaultInjector())
			} else {
				// A build that fails at issue: the walk after this edit runs
				// out of frames.
				r.e.FaultInjector().SetArmed(true)
				_, err = sp.OnEvent(evAddSel(sel), r.now)
				r.e.FaultInjector().SetArmed(false)
			}
			if err != nil {
				t.Fatalf("step %d: a faulted build escaped containment: %v", step, err)
			}
		case 14:
			// A build that fails at completion: its table disappears.
			for _, job := range sp.outstanding {
				if job.tableName != "" && !r.sabotaged[job] {
					r.sabotaged[job] = true
					if err := r.e.DropTable(job.tableName); err != nil {
						t.Fatal(err)
					}
					break
				}
			}
		case 15:
			// A self-scheduling owner completing a job that already ended.
			if len(r.ended) > 0 {
				job := r.ended[int(arg)%len(r.ended)]
				if _, err := r.jobs[job].sp.Complete(job, r.now); err == nil {
					t.Fatalf("step %d: a job that ended was completed again", step)
				}
			}
		}
		if ev.Kind != "" {
			r.advance(sp)
			if _, err := sp.OnEvent(ev, r.now); err != nil {
				t.Fatalf("step %d: %s: %v", step, ev.Kind, err)
			}
		}
		r.check(fmt.Sprintf("step %d (op %d)", step, op%16))
		if t.Failed() {
			return
		}
	}
	for _, sp := range r.sps {
		r.close(sp)
	}
	r.sps = nil
	if r.pressured {
		r.cfg.Ledger.End(r.pressure, r.pressure.Scope)
		r.pressured = false
	}
	r.check("after closing every speculator")
	if n, m := r.cfg.Ledger.Len(), r.cfg.Ledger.Misuses(); n != 0 || m != 0 {
		t.Errorf("ledger holds %d entries after Close, %d misuses", n, m)
	}
}

// goQuery sends sp a GO. Under GoContinue the GO ends no job: every job in
// flight before it is still outstanding afterwards, at the same CompletesAt
// and Deadline, and counted continued once. The model marks it continued; it
// must still end exactly once, which account and close check.
func (r *lifecycleRig) goQuery(sp *Speculator, step int) {
	t := r.t
	type flight struct{ completesAt, deadline sim.Time }
	before := map[*Job]flight{}
	fresh := 0
	for _, job := range sp.outstanding {
		before[job] = flight{job.CompletesAt, job.Deadline}
		if !job.continued {
			fresh++
		}
	}
	prev := sp.Stats().ContinuedAtGo
	_, out, err := sp.OnGo(r.now)
	if err != nil {
		t.Fatalf("step %d: GO: %v", step, err)
	}
	if r.cfg.AtGo != GoContinue {
		return
	}
	if len(out.Canceled) != 0 {
		t.Errorf("step %d: a GO under GoContinue ended %d jobs", step, len(out.Canceled))
	}
	still := map[*Job]bool{}
	for _, job := range sp.outstanding {
		still[job] = true
	}
	for job, f := range before {
		if !still[job] || job.CompletesAt != f.completesAt || job.Deadline != f.deadline {
			t.Errorf("step %d: job %s did not run on across the GO (outstanding %v, %v → %v)",
				step, job.Manip.Key(), still[job], f, flight{job.CompletesAt, job.Deadline})
		}
		if m := r.jobs[job]; m != nil {
			m.continued = true
		}
	}
	if got := sp.Stats().ContinuedAtGo - prev; got != fresh {
		t.Errorf("step %d: the GO counted %d jobs continued, %d ran on across their first GO", step, got, fresh)
	}
}

// advance completes sp's due jobs, as an owner does before every event.
func (r *lifecycleRig) advance(sp *Speculator) {
	if err := sp.Advance(r.now); err != nil {
		r.t.Fatal(err)
	}
}

// close shuts sp down, accounts its last transitions and requires that every
// job it issued has ended.
func (r *lifecycleRig) close(sp *Speculator) {
	if err := sp.Shutdown(); err != nil {
		r.t.Fatal(err)
	}
	r.account(sp, "close")
	if st, views := sp.Stats(), sp.cfg.Ledger.HeldViews(sp.holder); st.Issued != st.Terminals() || len(views) != 0 || len(sp.predictedReady) != 0 {
		r.t.Errorf("closed speculator: issued %d, ended %d, %d views and %d answers still held",
			st.Issued, st.Terminals(), len(views), len(sp.predictedReady))
	}
	for job, m := range r.jobs {
		if m.sp == sp && m.continued && !m.ended {
			r.t.Errorf("closed speculator: job %s ran on across a GO and never ended", job.Manip.Key())
		}
	}
}

// account moves the model's view of sp's jobs to what sp says now: a job it
// lists for the first time is issued, a job it stopped listing ended. Jobs
// issued and ended between two checks show in neither list, so the
// counters must agree on how many there were.
func (r *lifecycleRig) account(sp *Speculator, when string) {
	t := r.t
	st, prev := sp.Stats(), r.last[sp]
	if st.Issued != st.Terminals()+len(sp.outstanding) {
		t.Errorf("%s: issued %d != ended %d + outstanding %d", when, st.Issued, st.Terminals(), len(sp.outstanding))
	}
	listed := map[*Job]bool{}
	fresh, left := 0, 0
	for _, job := range sp.outstanding {
		listed[job] = true
		switch m := r.jobs[job]; {
		case m == nil:
			r.jobs[job] = &lifecycleJob{sp: sp}
			fresh++
		case m.ended || m.sp != sp:
			t.Errorf("%s: job %s is outstanding at %s, the model has %+v", when, job.Manip.Key(), sp.cfg.NamePrefix, *m)
		}
	}
	for job, m := range r.jobs {
		if m.sp == sp && !m.ended && !listed[job] {
			m.ended = true
			r.ended = append(r.ended, job)
			left++
		}
	}
	issued, ended := st.Issued-prev.Issued, st.Terminals()-prev.Terminals()
	if issued < fresh || issued-fresh != ended-left {
		t.Errorf("%s: %s issued %d (%d seen) and ended %d (%d seen)", when, sp.cfg.NamePrefix, issued, fresh, ended, left)
	}
	r.last[sp] = st
}

// lifecycleHold is a holder's in-flight hold on one ledger entry.
type lifecycleHold struct {
	holder, pages int
}

func (r *lifecycleRig) check(when string) {
	t := r.t
	t.Helper()
	// Jobs by state (account also sees a job outstanding at two speculators).
	for _, sp := range r.sps {
		r.account(sp, when)
	}

	// The in-flight entries are exactly what the speculators say they run;
	// the ready ones are held by live speculators only.
	want := map[AssetKey]lifecycleHold{}
	live := map[int]bool{}
	var holders []int
	for _, sp := range r.sps {
		live[sp.holder] = true
		holders = append(holders, sp.holder)
		for _, job := range sp.outstanding {
			if _, dup := want[job.asset]; dup {
				t.Errorf("%s: two outstanding jobs under %v", when, job.asset)
			}
			want[job.asset] = lifecycleHold{sp.holder, job.Manip.EstPages}
		}
	}
	if r.pressured {
		want[r.pressure] = lifecycleHold{r.pressure.Scope, r.pressurePages}
	}
	l := r.cfg.Ledger
	got := map[AssetKey]lifecycleHold{}
	views := map[string]bool{}
	l.mu.Lock()
	for key, a := range l.assets {
		if !a.ready {
			if len(a.holds) != 1 {
				t.Errorf("%s: in-flight entry %v has holds %+v", when, key, a.holds)
			} else {
				got[key] = lifecycleHold{a.holds[0].Holder, a.holds[0].Pages}
			}
			continue
		}
		views[a.table] = true
		for _, h := range a.holds {
			if !live[h.Holder] {
				t.Errorf("%s: ready entry %v is held by %d, no live speculator", when, key, h.Holder)
			}
		}
	}
	misuses := l.misuses
	l.mu.Unlock()
	if !maps.Equal(got, want) {
		t.Errorf("%s: the ledger's in-flight entries are %v, the speculators' jobs %v", when, got, want)
	}
	checkHeldViews(t, when, l, r.e.Catalog, holders)
	if misuses != 0 {
		t.Errorf("%s: %d ledger misuses", when, misuses)
	}
	pages := 0
	if r.pressured {
		pages = r.pressurePages
	}
	for _, sp := range r.sps {
		mine := 0
		for _, job := range sp.outstanding {
			mine += job.Manip.EstPages
		}
		for _, h := range l.HeldViews(sp.holder) {
			mine += h.Pages
		}
		if got := l.Pages(sp.holder); got != mine {
			t.Errorf("%s: ledger pages of %d are %d, its jobs and views have %d", when, sp.holder, got, mine)
		}
		pages += mine
	}
	if fp := l.Footprint(); fp != pages {
		t.Errorf("%s: ledger footprint %d, entries sum to %d", when, fp, pages)
	}

	// The answer cache.
	if ac := r.cfg.Answers; ac != nil {
		ac.mu.Lock()
		sum, held := 0, false
		for key, a := range ac.entries {
			sum += a.pages
			holders := 0
			for _, sp := range r.sps {
				if sp.predictedReady[key] {
					holders++
				}
			}
			if a.refs > holders {
				t.Errorf("%s: answer %s has %d references, %d sessions hold it", when, key, a.refs, holders)
			}
			held = held || a.refs > 0
		}
		if sum != ac.pages {
			t.Errorf("%s: answer cache counts %d pages, its entries %d", when, ac.pages, sum)
		}
		if !held && ac.pages > ac.capacity {
			t.Errorf("%s: answer cache at rest holds %d pages, cap %d", when, ac.pages, ac.capacity)
		}
		ac.mu.Unlock()
	}

	// Waste: once per build, across sessions.
	charged := map[string]int{}
	for _, sp := range r.all {
		for id, n := range sp.wasteCharges {
			if strings.Contains(id, "@") {
				id = sp.cfg.NamePrefix + id // key@instant names a build per session
			}
			charged[id] += n
		}
	}
	for id, n := range charged {
		if n > 1 {
			t.Errorf("%s: build %s charged to waste %d times", when, id, n)
		}
	}

	// What the optimizer and the catalog can still reach.
	tables := maps.Clone(views)
	for _, sp := range r.sps {
		for _, job := range sp.outstanding {
			tables[job.tableName] = true
		}
	}
	for _, name := range r.e.Catalog.TableNames() {
		if name != "R" && name != "S" && name != "W" && !tables[name] {
			t.Errorf("%s: speculative table %s outlived its job and its entry", when, name)
		}
	}
}
