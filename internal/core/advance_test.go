package core

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"specdb/internal/engine"
	"specdb/internal/obs"
	"specdb/internal/qgraph"
	"specdb/internal/sim"
	"specdb/internal/trace"
)

// manipSpans returns the tracer's manip.* spans in commit order — the order
// the speculator's jobs ended (and its contained failures were noted).
func manipSpans(e *engine.Engine) []obs.Span {
	var out []obs.Span
	for _, s := range e.Tracer().Spans() {
		if strings.HasPrefix(s.Name, "manip.") {
			out = append(out, s)
		}
	}
	return out
}

// threeWorkers puts R ⋈ S ⋈ W with a selection on the canvas of a
// three-worker speculator and returns it.
func threeWorkers(t *testing.T, e *engine.Engine) *Speculator {
	t.Helper()
	cfg := DefaultConfig()
	cfg.MinBenefit = 0
	cfg.Workers = 3
	sp := newSpec(e, cfg)
	for _, ev := range []trace.Event{
		evAddJoin(qgraph.Join{LeftRel: "R", LeftCol: "a", RightRel: "S", RightCol: "a"}),
		evAddJoin(qgraph.Join{LeftRel: "S", LeftCol: "b", RightRel: "W", RightCol: "b"}),
		evAddSel(selRC(18)),
	} {
		if _, err := sp.OnEvent(ev, 0); err != nil {
			t.Fatal(err)
		}
	}
	return sp
}

// threeJobs returns threeWorkers' speculator with its three outstanding
// jobs, in issue order.
func threeJobs(t *testing.T, e *engine.Engine) (*Speculator, []*Job) {
	t.Helper()
	sp := threeWorkers(t, e)
	if len(sp.outstanding) != 3 {
		t.Fatalf("%d jobs outstanding, want 3", len(sp.outstanding))
	}
	return sp, append([]*Job(nil), sp.outstanding...)
}

// TestAdvanceCompletesInScheduleOrder: Advance completes due jobs earliest
// first and, on equal completion instants, in issue order — and leaves the
// ones not due alone.
func TestAdvanceCompletesInScheduleOrder(t *testing.T) {
	e := newTestEngine(t, 400)
	sp, jobs := threeJobs(t, e)
	early, late := sim.FromSeconds(1000), sim.FromSeconds(2000)
	jobs[0].CompletesAt, jobs[1].CompletesAt, jobs[2].CompletesAt = late, early, late

	if err := sp.Advance(early - 1); err != nil {
		t.Fatal(err)
	}
	if st := sp.Stats(); st.Terminals() != 0 {
		t.Fatalf("a job ended before its completion instant: %+v", st)
	}
	if err := sp.Advance(late); err != nil {
		t.Fatal(err)
	}
	// Follow-ups issued into the freed slots end in between; look at the
	// three jobs only.
	order := map[string]int{}
	for i, s := range manipSpans(e) {
		for _, a := range s.Attrs {
			if a.Key == "table" {
				order[a.Value] = i
			}
		}
	}
	first, second, third := order[jobs[1].tableName], order[jobs[0].tableName], order[jobs[2].tableName]
	if !(first < second && second < third) {
		t.Fatalf("jobs 1, 0, 2 ended at positions %d, %d, %d; want the early one, then the tied ones in issue order", first, second, third)
	}
	if st := sp.Stats(); st.Completed < 3 {
		t.Fatalf("due jobs left incomplete: %+v", st)
	}
}

// TestAdvanceCompletesFollowUps: a completion frees its slot, the follow-up
// issued into it starts at that completion instant, and when it too is due by
// t the same Advance completes it.
func TestAdvanceCompletesFollowUps(t *testing.T) {
	e := newTestEngine(t, 400)
	cfg := DefaultConfig()
	cfg.MinBenefit = 0
	sp := newSpec(e, cfg)
	for _, ev := range []trace.Event{
		evAddJoin(qgraph.Join{LeftRel: "R", LeftCol: "a", RightRel: "S", RightCol: "a"}),
		evAddSel(selRC(18)),
	} {
		if _, err := sp.OnEvent(ev, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := sp.Advance(sim.FromSeconds(1e6)); err != nil {
		t.Fatal(err)
	}
	st := sp.Stats()
	if st.Issued < 2 || st.Completed != st.Issued {
		t.Fatalf("want a chain of completed jobs with nothing left in flight: %+v", st)
	}
	spans := manipSpans(e)
	for i := 1; i < len(spans); i++ {
		if spans[i].Start != spans[i-1].End {
			t.Fatalf("follow-up %d started at %v, not at its predecessor's completion %v", i, spans[i].Start, spans[i-1].End)
		}
	}
}

// TestAdvanceMatchesOwnerSchedule replays one script twice — three workers,
// cancels at GO — completing due jobs once through the owner-side schedule
// cmd/bench keeps (testPending) and once through Advance. Both must end every
// job the same way at the same instant.
func TestAdvanceMatchesOwnerSchedule(t *testing.T) {
	type outcome struct {
		stats Stats
		waste map[string]int
		spans []obs.Span
	}
	run := func(owner bool) outcome {
		e := newTestEngine(t, 400)
		cfg := DefaultConfig()
		cfg.MinBenefit = 0
		cfg.Workers = 3
		cfg.AtGo = GoCancel
		sp := newSpec(e, cfg)
		replayRandom(t, sp, 10, 150, time.Millisecond, owner)
		if err := sp.Shutdown(); err != nil {
			t.Fatal(err)
		}
		return outcome{sp.Stats(), sp.WasteCharges(), manipSpans(e)}
	}
	want, got := run(true), run(false)
	if want.stats.Completed == 0 || want.stats.CanceledAtGo == 0 || want.stats.CanceledInvalidated == 0 {
		t.Fatalf("script exercises too little: %+v", want.stats)
	}
	if got.stats != want.stats {
		t.Errorf("stats differ:\n owner   %+v\n advance %+v", want.stats, got.stats)
	}
	if !reflect.DeepEqual(got.waste, want.waste) {
		t.Errorf("waste ledgers differ:\n owner   %v\n advance %v", want.waste, got.waste)
	}
	if !reflect.DeepEqual(got.spans, want.spans) {
		t.Errorf("manip spans differ: owner %d spans, advance %d", len(want.spans), len(got.spans))
	}
}
