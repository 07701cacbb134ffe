package engine_test

import (
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"specdb/internal/engine"
	"specdb/internal/golden"
	"specdb/internal/harness"
	"specdb/internal/plan"
	"specdb/internal/tpch"
	"specdb/internal/trace"
)

// benchFinals is every final of the bench corpus (3 users, corpus seed 7),
// bound against eng's catalog, in user then query order, with its label.
func benchFinals(t *testing.T, eng *engine.Engine) (labels []string, finals []*plan.Query) {
	t.Helper()
	traces, err := trace.GenerateCorpus(tpch.Vocabulary(), 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	for u, tr := range traces {
		qs, err := trace.ExtractQueries(tr)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range qs {
			bound, err := plan.BindGraphProjections(eng.Catalog, q.Graph, q.Projs)
			if err != nil {
				t.Fatal(err)
			}
			labels = append(labels, "t"+strconv.Itoa(u)+" q"+strconv.Itoa(q.Index))
			finals = append(finals, bound)
		}
	}
	return labels, finals
}

// newBenchEnv is the bench's 100MB database on the 46-page pool.
func newBenchEnv(t *testing.T) *engine.Engine {
	t.Helper()
	return newEnvAt(t, tpch.Scale100MB)
}

// newEnvAt is the bench's database (data seed 42) at scale, on the 46-page
// pool.
func newEnvAt(t *testing.T, scale tpch.Scale) *engine.Engine {
	t.Helper()
	env, err := harness.NewEnv(harness.EnvConfig{Scale: scale, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return env.Eng
}

// coldRun runs q from a cold pool under the engine's options as tune changes
// them.
func coldRun(t *testing.T, eng *engine.Engine, q *plan.Query, tune func(*plan.Options)) *engine.Result {
	t.Helper()
	if err := eng.ColdStart(); err != nil {
		t.Fatal(err)
	}
	res, err := eng.RunQueryWith(q, tune)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

var analyzedIO = regexp.MustCompile(`io=(\d+)r/`)

// TestIndexScanReadsEachHeapPageOnce: t2 q36 of the bench corpus at 100MB
// scans lineitem (106 pages) through its l_shipdate index on a cold 46-page
// pool. Fetched in key order, its 708 matches read 2,103 pages; fetched in
// heap order, the scan reads each table page at most once, as
// the optimizer's index estimate prices it, plus the index pages it descends.
func TestIndexScanReadsEachHeapPageOnce(t *testing.T) {
	eng := newBenchEnv(t)
	labels, finals := benchFinals(t, eng)
	var q *plan.Query
	for i, l := range labels {
		if l == "t2 q36" {
			q = finals[i]
		}
	}
	if err := eng.ColdStart(); err != nil {
		t.Fatal(err)
	}
	res, err := eng.ExplainAnalyze(q)
	if err != nil {
		t.Fatal(err)
	}
	lineitem, err := eng.Catalog.Table("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	limit := lineitem.NumPages() + lineitem.Index("l_shipdate").Tree.NumPages()
	found := false
	for _, line := range strings.Split(res.Analyzed, "\n") {
		if !strings.Contains(line, "IndexScan lineitem on l_shipdate") {
			continue
		}
		found = true
		m := analyzedIO.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("no actual I/O on %q", line)
		}
		if reads, _ := strconv.Atoi(m[1]); reads > limit {
			t.Errorf("the index scan read %d pages, more than lineitem's %d heap and index pages:\n%s", reads, limit, res.Analyzed)
		}
	}
	if !found {
		t.Fatalf("t2 q36 no longer scans lineitem through l_shipdate:\n%s", res.Analyzed)
	}
}

// TestNoFinalLosesToItsSeqScanPlan is the first row of a plan-choice oracle:
// run from a cold pool, no final of the bench corpus at 100MB takes more than
// 10 % longer in simulated time under the optimizer's plan than under its
// AvoidIndexes plan, which reads every table sequentially. An index plan the
// cost model prices below a sequential scan must not run slower than one.
func TestNoFinalLosesToItsSeqScanPlan(t *testing.T) {
	eng := newBenchEnv(t)
	labels, finals := benchFinals(t, eng)
	var total, seqTotal, worst float64
	for i, q := range finals {
		chosen := coldRun(t, eng, q, func(*plan.Options) {}).Duration.Seconds()
		seq := coldRun(t, eng, q, func(o *plan.Options) { o.AvoidIndexes = true }).Duration.Seconds()
		total += chosen
		seqTotal += seq
		worst = max(worst, chosen/seq)
		if chosen > 1.1*seq {
			t.Errorf("%s runs %.2f s with its plan, %.2f s with AvoidIndexes (%.1f×)", labels[i], chosen, seq, chosen/seq)
		}
	}
	t.Logf("%d finals: %.1f s as planned, %.1f s with AvoidIndexes, worst ratio %.2f", len(finals), total, seqTotal, worst)
}

// TestBenchFinalPlansGolden pins the plan the optimizer chooses for every
// final of the bench corpus at 100MB and 500MB, speculation off, as its
// Explain text — operators, join order, access paths, estimated rows and
// costs — against testdata/bench_final_plans.golden. A change to how the
// planner searches must leave it byte-identical; a change to what it
// chooses re-records it with -update and says why.
func TestBenchFinalPlansGolden(t *testing.T) {
	var b strings.Builder
	for _, scale := range []tpch.Scale{tpch.Scale100MB, tpch.Scale500MB} {
		eng := newEnvAt(t, scale)
		labels, finals := benchFinals(t, eng)
		for i, q := range finals {
			node, err := eng.Plan(q)
			if err != nil {
				t.Fatalf("%s %s: %v", scale.Name, labels[i], err)
			}
			b.WriteString("== " + scale.Name + " " + labels[i] + "\n")
			b.WriteString(plan.Explain(node))
		}
	}
	golden.Check(t, filepath.Join("testdata", "bench_final_plans.golden"), b.String())
}
