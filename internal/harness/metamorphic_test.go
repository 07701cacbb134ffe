package harness

import (
	"fmt"
	"testing"

	"specdb/internal/core"
	"specdb/internal/tpch"
)

// TestMetamorphicEquivalence replays the same generated traces under every
// combination of speculation (off, on, on with extra workers) and buffer-pool
// sharding (1, 4, 16 shards) and asserts the final query results are the same
// row-sets everywhere. Speculation and sharding are performance transforms:
// they may change plans, timings, and physical layout, but never what a query
// returns.
func TestMetamorphicEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("metamorphic replay matrix is slow")
	}
	traces := tinyTraces(t, 2)
	shards := []int{1, 4, 16}
	type mode struct {
		name    string
		spec    bool
		workers int
	}
	modes := []mode{
		{name: "spec=off"},
		{name: "spec=on", spec: true, workers: 1},
		{name: "spec=on,workers=3", spec: true, workers: 3},
	}

	// keys[traceIdx][queryIdx] from the reference configuration: speculation
	// off, one shard.
	var reference [][]QueryTiming
	run := func(t *testing.T, nshards int, m mode) [][]QueryTiming {
		t.Helper()
		env := tinyEnv(t, EnvConfig{PoolShards: nshards})
		var out [][]QueryTiming
		for i, tr := range traces {
			var timings []QueryTiming
			if m.spec {
				cfg := core.DefaultConfig()
				cfg.Workers = m.workers
				spec, err := RunTraceSpeculative(env.Eng, i, tr, cfg)
				if err != nil {
					t.Fatal(err)
				}
				timings = spec.Timings
			} else {
				var err error
				timings, err = RunTraceNormal(env.Eng, i, tr)
				if err != nil {
					t.Fatal(err)
				}
			}
			out = append(out, timings)
		}
		return out
	}

	for _, nshards := range shards {
		for _, m := range modes {
			name := fmt.Sprintf("shards=%d/%s", nshards, m.name)
			t.Run(name, func(t *testing.T) {
				got := run(t, nshards, m)
				if reference == nil {
					reference = got
					return
				}
				for ti := range reference {
					if len(got[ti]) != len(reference[ti]) {
						t.Fatalf("trace %d: %d queries, reference has %d", ti, len(got[ti]), len(reference[ti]))
					}
					for qi := range reference[ti] {
						want, have := reference[ti][qi], got[ti][qi]
						if have.Rows != want.Rows || have.RowsKey != want.RowsKey {
							t.Errorf("trace %d query %d: row-set (n=%d key=%x) differs from reference (n=%d key=%x)",
								ti, qi, have.Rows, have.RowsKey, want.Rows, want.RowsKey)
						}
					}
				}
			})
		}
	}
}

// TestMetamorphicScaledCSE replays the same 64-session merged event sequence
// under cross-session CSE off/on × workers {1, 3} and asserts the cross-
// session layer is a pure performance transform: per-query result row
// multisets are identical everywhere, every session satisfies the quiesce
// identity, and shared builds really happen in the CSE runs.
func TestMetamorphicScaledCSE(t *testing.T) {
	if testing.Short() {
		t.Skip("scaled metamorphic replay matrix is slow")
	}
	const sessions = 64
	traces, err := ScaledCorpus(tpch.Vocabulary(), sessions, 7)
	if err != nil {
		t.Fatal(err)
	}
	type mode struct {
		name    string
		cse     bool
		workers int
	}
	modes := []mode{
		{name: "cse=off,workers=1", workers: 1},
		{name: "cse=off,workers=3", workers: 3},
		{name: "cse=on,workers=1", cse: true, workers: 1},
		{name: "cse=on,workers=3", cse: true, workers: 3},
	}

	// reference[user][queryIdx] from cse=off workers=1.
	var reference map[string]QueryTiming
	key := func(qt QueryTiming) string { return fmt.Sprintf("%d/%d", qt.TraceIdx, qt.QueryIdx) }
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			env := tinyEnv(t, EnvConfig{BufferPoolPages: PoolPages96MB})
			cfg := core.DefaultConfig()
			cfg.Workers = m.workers
			cfg.Ledger = core.NewLedger(env.Eng.Metrics(), m.cse)
			out, err := RunScaledSessions(env.Eng, traces, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if reference == nil {
				reference = map[string]QueryTiming{}
				for _, qt := range out.Timings {
					reference[key(qt)] = qt
				}
				return
			}
			if len(out.Timings) != len(reference) {
				t.Fatalf("%d queries answered, reference has %d", len(out.Timings), len(reference))
			}
			for _, qt := range out.Timings {
				want, ok := reference[key(qt)]
				if !ok {
					t.Fatalf("query %s missing from reference", key(qt))
				}
				if qt.Rows != want.Rows || qt.RowsKey != want.RowsKey {
					t.Errorf("query %s: row-set (n=%d key=%x) differs from reference (n=%d key=%x)",
						key(qt), qt.Rows, qt.RowsKey, want.Rows, want.RowsKey)
				}
			}
			for u, st := range out.PerUser {
				if st.Issued != st.Terminals() {
					t.Errorf("session %d: quiesce identity violated: issued %d != terminal %d (%+v)", u, st.Issued, st.Terminals(), st)
				}
			}
			if m.cse {
				if out.Stats.SharedAttached == 0 {
					t.Error("CSE run attached no shared builds")
				}
				if out.SharedBuilds == 0 {
					t.Error("CSE run produced no shared (>= 2 consumer) builds")
				}
			} else if out.Stats.SharedAttached != 0 || out.SharedBuilds != 0 {
				t.Errorf("CSE-off run reports sharing: %+v", out.Stats)
			}
		})
	}
}
