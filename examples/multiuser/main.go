// Multiuser: the Section 6.3 scenario — three analysts exploring the same
// database simultaneously. Each has their own Speculator (restricted to
// selection materializations, the paper's low-interference strategy); the
// server runs everything on one shared buffer pool and one ledger, and a
// user's query waits behind the page I/O of the other users' speculative
// jobs in flight beside it.
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
	spec, err := harness.RunScaledSessions(env.Eng, traces, cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Aggregate per user: both replays answer every user's every query.
	n, s := make([]float64, len(traces)), make([]float64, len(traces))
	for _, t := range normal {
		n[t.TraceIdx] += t.Seconds
	}
	for _, t := range spec.Timings {
		s[t.TraceIdx] += t.Seconds
	}
	fmt.Printf("\n%-8s %12s %12s %10s\n", "user", "normal(s)", "spec(s)", "improve%")
	var tn, ts float64
	for u := range traces {
		tn += n[u]
		ts += s[u]
		fmt.Printf("user%02d   %12.1f %12.1f %9.1f%%\n", u+1, n[u], s[u], (1-s[u]/n[u])*100)
	}
	fmt.Printf("%-8s %12.1f %12.1f %9.1f%%\n", "all", tn, ts, (1-ts/tn)*100)
	st := spec.Stats
	fmt.Printf("\nmanipulations: issued %d, completed %d, canceled %d\n",
		st.Issued, st.Completed, st.CanceledInvalidated+st.CanceledAtGo)
}
