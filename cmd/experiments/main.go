// Command experiments regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §3 for the experiment index):
//
//	t51  Section 5 table: query-formulation duration statistics
//	t52  Section 5 prose: query structure and part persistence
//	f4   Figure 4: speculation vs normal, per dataset size
//	f5   Figure 5: maximum improvement/penalty per bucket
//	f6   Figure 6: speculation vs materialized views vs combination
//	f7   Figure 7: three simultaneous users
//	a1   Section 3.2 ablation: manipulation families
//	a2   Section 6.1 prose: memory-resident database
//	a3   Section 3.3 ablation: lookahead depth
//	a4   GO policies: run builds on or cancel them
//	a5   Section 7 proposal: suspend speculation under load, three users, per scale
//
// bench (never part of all) writes the spec-on vs spec-off benchmark report,
// BENCH_spec.json by default (-benchout), for the first requested scale.
//
// Usage:
//
//	experiments [-exp all] [-users 15] [-scales 100MB,500MB,1GB] [-seed 7]
//
// Runs are deterministic; expect the full suite at 15 users to take tens of
// minutes of wall-clock (every query of every trace really executes, twice
// or more).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"

	"specdb/internal/harness"
	"specdb/internal/tpch"
	"specdb/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stderr)) }

// run is main with its inputs and exit status explicit: 2 for a command line
// it cannot act on, 0 once every requested experiment has printed.
func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "comma-separated experiment ids out of "+strings.Join(experimentIDs, ",")+"; 'bench' (never part of 'all') writes a spec-on vs spec-off benchmark JSON")
	users := fs.Int("users", 15, "trace corpus size")
	seed := fs.Uint64("seed", 7, "corpus seed")
	dataSeed := fs.Uint64("dataseed", 42, "dataset seed")
	scalesFlag := fs.String("scales", "100MB,500MB,1GB", "dataset scales to run")
	benchOut := fs.String("benchout", "BENCH_spec.json", "output path for -exp bench")
	scaledSessions := fs.Int("scaledsessions", 64, "concurrent sessions of the bench's scaled cross-session CSE comparison")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wanted, err := parseExperiments(*exp)
	if err != nil {
		fmt.Fprintln(stderr, "experiments:", err)
		return 2
	}
	scales := strings.Split(*scalesFlag, ",")
	traces, err := trace.GenerateCorpus(tpch.Vocabulary(), *users, *seed)
	if err != nil {
		fatal(err)
	}
	run := func(id string) bool { return wanted["all"] || wanted[id] }

	if run("t51") {
		t51(traces)
	}
	if run("t52") {
		t52(traces)
	}
	if run("f4") || run("f5") {
		f45(traces, scales, *dataSeed, run("f4"), run("f5"))
	}
	if run("f6") {
		f6(traces, scales, *dataSeed)
	}
	if run("f7") {
		f7(traces, scales, *dataSeed)
	}
	if run("a1") {
		a1(traces, *dataSeed)
	}
	if run("a2") {
		a2(traces, *dataSeed)
	}
	if run("a3") {
		a3(traces, *dataSeed)
	}
	if run("a4") {
		a4(traces, *dataSeed)
	}
	if run("a5") {
		a5(traces, scales, *dataSeed)
	}
	// bench runs only when named explicitly: it writes a file, so it must not
	// ride along with -exp all.
	if wanted["bench"] {
		bench(traces, scales[0], *users, *seed, *dataSeed, *scaledSessions, *benchOut)
	}
	return 0
}

// experimentIDs are the values -exp accepts.
var experimentIDs = []string{"all", "t51", "t52", "f4", "f5", "f6", "f7", "a1", "a2", "a3", "a4", "a5", "bench"}

// parseExperiments splits the -exp list, rejecting any id main does not run:
// a typo must not look like a successful run of nothing.
func parseExperiments(list string) (map[string]bool, error) {
	wanted := map[string]bool{}
	for _, id := range strings.Split(list, ",") {
		id = strings.TrimSpace(id)
		if !slices.Contains(experimentIDs, id) {
			return nil, fmt.Errorf("unknown experiment %q (known: %s)", id, strings.Join(experimentIDs, ", "))
		}
		wanted[id] = true
	}
	return wanted, nil
}

// bench writes the spec-on vs spec-off benchmark report (see BenchResult in
// internal/harness for the schema) for the first requested scale.
func bench(traces []*trace.Trace, scale string, users int, seed, dataSeed uint64, scaledSessions int, path string) {
	header(fmt.Sprintf("BENCH(%s)  spec-on vs spec-off → %s", scale, path))
	res, err := harness.RunBench(scale, traces, dataSeed)
	if err != nil {
		fatal(err)
	}
	res.Users = users
	res.Seed = seed
	scaled, err := harness.RunScaledBench(scale, scaledSessions, dataSeed)
	if err != nil {
		fatal(err)
	}
	res.ScaledSessions = scaled.Sessions
	res.SharedBuilds = scaled.SharedBuilds
	res.DedupSavedS = scaled.DedupSavedS
	res.ScaledWasteOffS = scaled.WasteOffS
	res.ScaledWasteOnS = scaled.WasteOnS
	res.ScaledWasteReductionPct = scaled.WasteReductionPct()
	res.ScaledHitRateOff = scaled.HitRateOff
	res.ScaledHitRateOn = scaled.HitRateOn
	out, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		fatal(err)
	}
	out = append(out, '\n')
	if err := os.WriteFile(path, out, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("  %d queries: relative response time %.3f (improvement %.1f%%)\n",
		res.Queries, res.RelativeResponseTime, res.ImprovementPct)
	fmt.Printf("  hit rate %.2f   waste %.1fs   incomplete at GO %.0f%%\n",
		res.HitRate, res.WasteS, res.IncompletePct)
	fmt.Printf("  scaled CSE (%d sessions): shared builds %d, dedup saved %.1fs\n",
		res.ScaledSessions, res.SharedBuilds, res.DedupSavedS)
	fmt.Printf("  scaled waste %.1fs → %.1fs (−%.1f%%)   hit rate %.2f → %.2f\n",
		res.ScaledWasteOffS, res.ScaledWasteOnS, res.ScaledWasteReductionPct, res.ScaledHitRateOff, res.ScaledHitRateOn)
	fmt.Printf("  predicted GO rate %.2f (%d/%d issued)   instant GO saved %.1fs   equivalence failures %d\n",
		res.PredictedGoRate, res.PredictedGos, res.PredictedIssued, res.InstantGoSavedS, res.PredictEquivFailures)
	fmt.Printf("  executed predictions the answer cache refused: %d, %.1fs of simulated build\n",
		res.PredictedUnholdable, res.PredictedUnholdableS)
}

func header(title string) {
	fmt.Printf("\n================ %s ================\n", title)
}

func t51(traces []*trace.Trace) {
	header("T5.1  query formulation duration (s) — paper: min 1 avg 28 max 680 p25 4 p50 11 p75 29")
	fs, err := trace.CorpusFormulationStats(traces)
	if err != nil {
		fatal(err)
	}
	fmt.Println(fs)
}

func t52(traces []*trace.Trace) {
	header("T5.2  query structure — paper: 42 q/trace, 1-2 sels, 4 rels, persistence 3 (sel) / 10 (join)")
	ss, err := trace.CorpusStructureStats(traces)
	if err != nil {
		fatal(err)
	}
	fmt.Println(ss)
}

func f45(traces []*trace.Trace, scales []string, seed uint64, showF4, showF5 bool) {
	for _, scale := range scales {
		res, err := harness.RunSpecVsNormal(scale, traces, seed)
		if err != nil {
			fatal(err)
		}
		if showF4 {
			header(fmt.Sprintf("F4(%s)  speculation vs normal — paper avg: 100MB 42%%, 500MB 28%%, 1GB 20%%", scale))
			fmt.Printf("in-range improvement: %.1f%%   (all queries: %.1f%%)\n", res.InRangePct, res.OverallPct)
			fmt.Printf("avg materialization: %.1fs (paper: 6/9/10s)   incomplete at GO: %.0f%% (paper: 17/25/30%%)\n",
				res.AvgMaterializationSec, res.IncompletePct)
			fmt.Print(harness.RenderBuckets(res.Buckets, false))
			fmt.Print(harness.RenderBarChart("average improvement per bucket:", res.Buckets))
		}
		if showF5 {
			header(fmt.Sprintf("F5(%s)  max improvement / max penalty per bucket", scale))
			fmt.Print(harness.RenderBuckets(res.Buckets, true))
			fmt.Print(harness.RenderExtremesChart("extremes per bucket:", res.Buckets))
		}
	}
}

func f6(traces []*trace.Trace, scales []string, seed uint64) {
	for _, scale := range scales {
		res, err := harness.RunFigure6(scale, traces, seed)
		if err != nil {
			fatal(err)
		}
		header(fmt.Sprintf("F6(%s)  views vs speculation vs combination (improvement over normal, no views)", scale))
		fmt.Printf("overall: views %.1f%%  spec %.1f%%  spec+views %.1f%%\n",
			res.Overall.ViewsPct, res.Overall.SpecPct, res.Overall.BothPct)
		fmt.Printf("%-12s %8s %8s %8s\n", "bucket(s)", "views%", "spec%", "both%")
		type row struct{ lo, hi float64 }
		byKey := func(bs []harness.Bucket) map[row]float64 {
			m := map[row]float64{}
			for _, b := range bs {
				m[row{b.Lo, b.Hi}] = b.ImprovementPct
			}
			return m
		}
		v, s, b := byKey(res.Views), byKey(res.Spec), byKey(res.Both)
		keys := map[row]bool{}
		for k := range v {
			keys[k] = true
		}
		for k := range s {
			keys[k] = true
		}
		for k := range b {
			keys[k] = true
		}
		var ordered []row
		for k := range keys {
			ordered = append(ordered, k)
		}
		sort.Slice(ordered, func(i, j int) bool { return ordered[i].lo < ordered[j].lo })
		for _, k := range ordered {
			fmt.Printf("%5.0f-%-6.0f %8.1f %8.1f %8.1f\n", k.lo, k.hi, v[k], s[k], b[k])
		}
	}
}

func f7(traces []*trace.Trace, scales []string, seed uint64) {
	for _, scale := range scales {
		res, err := harness.RunFigure7(scale, traces, seed)
		if err != nil {
			fatal(err)
		}
		header(fmt.Sprintf("F7(%s)  three simultaneous users, 96MB pool, selections-only", scale))
		fmt.Printf("overall improvement: %.1f%%\n", res.OverallPct)
		fmt.Print(harness.RenderBuckets(res.Buckets, false))
		fmt.Print(harness.RenderBarChart("average improvement per bucket:", res.Buckets))
	}
}

func a1(traces []*trace.Trace, seed uint64) {
	header("A1  manipulation-family ablation (100MB) — paper: materialization/rewriting dominate")
	res, err := harness.RunAblationManipulations("100MB", traces, seed)
	if err != nil {
		fatal(err)
	}
	for _, fam := range []string{"materialize", "index", "histogram", "stage"} {
		fmt.Printf("  %-12s %6.1f%%\n", fam, res.PctByFamily[fam])
	}
}

func a2(traces []*trace.Trace, seed uint64) {
	header("A2  memory-resident database (100MB) — paper: speculation still wins")
	res, err := harness.RunMemoryResident("100MB", traces, seed)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("  overall improvement: %.1f%%\n", res.OverallPct)
}

func a3(traces []*trace.Trace, seed uint64) {
	header("A3  lookahead-depth ablation (100MB)")
	res, err := harness.RunLookahead("100MB", traces, seed, []int{0, 1, 3})
	if err != nil {
		fatal(err)
	}
	for _, n := range res.Depths {
		fmt.Printf("  n=%d  %6.1f%%\n", n, res.PctByN[n])
	}
}

func a4(traces []*trace.Trace, seed uint64) {
	header("A4  builds in flight at GO (100MB) — run on across GO, or cancel at GO")
	res, err := harness.RunGoPolicyAblation("100MB", traces, seed)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("  run on across GO (default):     %6.1f%%\n", res.ContinuePct)
	fmt.Printf("  cancel at GO (paper's default): %6.1f%%\n", res.CancelPct)
}

func a5(traces []*trace.Trace, scales []string, seed uint64) {
	for _, scale := range scales {
		res, err := harness.RunSuspendAblation(scale, traces, seed)
		if err != nil {
			fatal(err)
		}
		header(fmt.Sprintf("A5(%s)  suspend-when-busy, three simultaneous users — the paper's Section 7 proposal", scale))
		fmt.Printf("  always speculate: %6.1f%%\n", res.AlwaysPct)
		fmt.Printf("  suspend if busy:  %6.1f%%  (%d opportunities suspended)\n", res.SuspendPct, res.Suspended)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
