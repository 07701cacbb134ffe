// Multiuser: the Section 6.3 scenario — three analysts exploring the same
// database simultaneously. Each has their own Speculator (restricted to
// selection materializations, the paper's low-interference strategy); the
// server runs everything on one shared buffer pool, and every user's work
// slows the others' down (the speculators' contention model).
//
// This example drives the experiment harness directly: it replays three
// synthetic interface traces interleaved by timestamp, once without and once
// with speculation, and prints the per-user outcome.
//
//	go run ./examples/multiuser
package main

import (
	"fmt"
	"log"

	"specdb/internal/core"
	"specdb/internal/harness"
	"specdb/internal/tpch"
	"specdb/internal/trace"
)

func main() {
	fmt.Println("generating three user sessions...")
	traces, err := trace.GenerateCorpus(tpch.Vocabulary(), 3, 11)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("loading the 100MB TPC-H subset (96MB-equivalent shared pool)...")
	env, err := harness.NewEnv(harness.EnvConfig{
		Scale:           tpch.Scale100MB,
		Seed:            42,
		BufferPoolPages: harness.PoolPages96MB,
	})
	if err != nil {
		log.Fatal(err)
	}

	normal, err := harness.RunMultiUserNormal(env.Eng, traces)
	if err != nil {
		log.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.SelectionsOnly = true // reduce interference between users
	cfg.ContentionFactor = 0.35
	spec, err := harness.RunScaledSessions(env.Eng, traces, cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Aggregate per user.
	type agg struct{ n, s float64 }
	perUser := map[int]*agg{}
	specBy := map[[2]int]float64{}
	for _, t := range spec.Timings {
		specBy[[2]int{t.TraceIdx, t.QueryIdx}] = t.Seconds
	}
	for _, t := range normal {
		a := perUser[t.TraceIdx]
		if a == nil {
			a = &agg{}
			perUser[t.TraceIdx] = a
		}
		a.n += t.Seconds
		a.s += specBy[[2]int{t.TraceIdx, t.QueryIdx}]
	}
	fmt.Printf("\n%-8s %12s %12s %10s\n", "user", "normal(s)", "spec(s)", "improve%")
	var tn, ts float64
	for u := 0; u < len(traces); u++ {
		a := perUser[u]
		tn += a.n
		ts += a.s
		fmt.Printf("user%02d   %12.1f %12.1f %9.1f%%\n", u+1, a.n, a.s, (1-a.s/a.n)*100)
	}
	fmt.Printf("%-8s %12.1f %12.1f %9.1f%%\n", "all", tn, ts, (1-ts/tn)*100)
	st := spec.Stats
	fmt.Printf("\nmanipulations: issued %d, completed %d, canceled %d (contention slows everyone)\n",
		st.Issued, st.Completed, st.CanceledInvalidated+st.CanceledAtGo)
}
