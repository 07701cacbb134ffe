// Command replay replays one recorded trace against a freshly loaded
// dataset, once under normal processing and once under speculative
// processing (specdb.DB.ReplayTrace), and prints the per-query comparison —
// the paper's methodology (Section 4.1) for a single trace.
//
// Usage:
//
//	replay -trace traces/user01.json [-scale 100MB] [-seed 42]
package main

import (
	"flag"
	"fmt"
	"os"

	"specdb"
)

func main() {
	tracePath := flag.String("trace", "", "trace JSON file (required)")
	scale := flag.String("scale", "100MB", "dataset scale: 100MB, 500MB, or 1GB")
	seed := flag.Uint64("seed", 42, "data generation seed")
	flag.Parse()
	if *tracePath == "" {
		fatal(fmt.Errorf("-trace is required"))
	}

	data, err := os.ReadFile(*tracePath)
	if err != nil {
		fatal(err)
	}
	db := specdb.Open(specdb.Options{})
	fmt.Fprintf(os.Stderr, "loading %s dataset...\n", *scale)
	if err := db.LoadTPCH(*scale, *seed); err != nil {
		fatal(err)
	}
	sum, err := db.ReplayTrace(data)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("%-5s %10s %10s %9s\n", "query", "normal(s)", "spec(s)", "improve%")
	for i, q := range sum.PerQuery { // normal, speculative seconds
		imp := 0.0
		if q[0] > 0 {
			imp = (1 - q[1]/q[0]) * 100
		}
		fmt.Printf("q%-4d %10.2f %10.2f %8.1f%%\n", i, q[0], q[1], imp)
	}
	fmt.Printf("\ntotal: normal %.1fs, speculative %.1fs, improvement %.1f%%\n",
		sum.NormalSeconds, sum.SpeculativeSeconds, sum.ImprovementPct)
	st := sum.Stats
	fmt.Printf("manipulations: issued %d, completed %d, canceled (invalidated %d, at GO %d), ran on across GO %d, GC'd %d\n",
		st.Issued, st.Completed, st.CanceledInvalidated, st.CanceledAtGo, st.ContinuedAtGo, st.GarbageCollected)
	if st.MaterializationsIssued > 0 {
		fmt.Printf("avg materialization: %.1fs\n",
			st.MaterializationTime.Seconds()/float64(st.MaterializationsIssued))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "replay:", err)
	os.Exit(1)
}
