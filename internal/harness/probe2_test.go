package harness

import (
	"strings"
	"testing"

	"specdb/internal/core"
	"specdb/internal/plan"
	"specdb/internal/tpch"
	"specdb/internal/trace"
)

// TestProbeSpecDetail replays one trace speculatively, logging per-query
// improvement and whether the plan used a speculative table.
func TestProbeSpecDetail(t *testing.T) {
	if testing.Short() {
		t.Skip("diagnostic probe is slow")
	}
	traces, err := trace.GenerateCorpus(tpch.Vocabulary(), 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	tr := traces[0]
	env, err := NewEnv(EnvConfig{Scale: tpch.Scale100MB, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	normal, err := RunTraceNormal(env.Eng, 0, tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := env.Eng.ColdStart(); err != nil {
		t.Fatal(err)
	}
	eng := env.Eng
	cfg := core.DefaultConfig()
	sp := core.NewSpeculator(eng, core.NewLearner(core.DefaultLearnerConfig()), cfg)
	qIdx := 0
	var issuedLog []string
	rewritten := 0
	for _, ev := range tr.Events {
		at := ev.At()
		if err := sp.Advance(at); err != nil {
			t.Fatal(err)
		}
		if ev.Kind == trace.EvGo {
			res, _, err := sp.OnGo(at)
			if err != nil {
				t.Fatal(err)
			}
			n := normal[qIdx].Seconds
			s := res.Duration.Seconds()
			usesSpec := strings.Contains(plan.Explain(res.Plan), "spec_")
			if usesSpec {
				rewritten++
			}
			imp := 0.0
			if n > 0 {
				imp = (1 - s/n) * 100
			}
			t.Logf("q%02d normal=%6.1fs spec=%6.1fs imp=%6.1f%% usesSpec=%v manips=%v",
				qIdx, n, s, imp, usesSpec, issuedLog)
			issuedLog = nil
			qIdx++
			continue
		}
		evOut, err := sp.OnEvent(ev, at)
		if err != nil {
			t.Fatal(err)
		}
		for _, job := range evOut.Issued {
			issuedLog = append(issuedLog, job.Manip.String())
		}
	}
	st := sp.Stats()
	t.Logf("rewritten=%d/%d stats=%+v", rewritten, qIdx, st)
	_ = sp.Shutdown()
}
