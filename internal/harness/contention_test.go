package harness

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"specdb/internal/core"
	"specdb/internal/golden"
	"specdb/internal/tpch"
)

// TestMultiUserContentionGolden pins the Section 6.3 setting — users
// interleaved on one engine and one ledger, the 96 MB-equivalent pool,
// contention factor 0.35 — per GO: three users with F7's selections-only
// speculators and with A5's always and suspend-when-busy policies, and six
// trained-predictor users whose GOs are served or execute. Each
// GO's simulated seconds, and the counters contention moves, must reproduce
// byte for byte. The golden holds what the engine-side load model produced
// before the speculator took it over; never regenerate it to absorb a
// difference.
func TestMultiUserContentionGolden(t *testing.T) {
	traces := tinyTraces(t, 3)
	scale := tpch.Scale100MB
	var b strings.Builder
	dump := func(name string, timings []QueryTiming, st core.Stats) {
		fmt.Fprintf(&b, "== %s\n", name)
		for _, qt := range timings {
			fmt.Fprintf(&b, "u%d q%d %v\n", qt.TraceIdx, qt.QueryIdx, qt.Seconds)
		}
		fmt.Fprintf(&b, "issued %d completed %d suspended %d predicted_gos %d materialization_s %v waste_s %v\n",
			st.Issued, st.Completed, st.Suspended, st.PredictedGos,
			st.MaterializationTime.Seconds(), st.Waste.Seconds())
	}
	multiUser := func(name string, tune func(*core.Config)) ([]QueryTiming, core.Stats) {
		cfg := core.DefaultConfig()
		tune(&cfg)
		_, paired, st, err := runMultiUser(scale, 42, traces, cfg)
		if err != nil {
			t.Fatal(err)
		}
		dump(name, paired, st)
		return paired, st
	}

	f7, _ := multiUser("f7", func(c *core.Config) { c.SelectionsOnly = true })
	always, _ := multiUser("a5_always", func(*core.Config) {})
	if _, st := multiUser("a5_suspend", func(c *core.Config) { c.SuspendWhenBusy = 1 }); st.Suspended == 0 {
		t.Error("suspend-when-busy never suspended: the gate reads no load")
	}

	// Trained predictors: one pass to train, then the pinned pass, whose GOs
	// are served from the answer cache or execute while other users' jobs
	// are in flight. Six users, under runMultiUser's GO policy.
	env := tinyEnv(t, EnvConfig{Scale: scale, BufferPoolPages: PoolPages96MB})
	cfg := core.DefaultConfig()
	cfg.ContentionFactor = 0.35
	cfg.AtGo = core.GoCancel
	cfg.Predictor = core.NewPredictor(core.DefaultPredictorConfig())
	cfg.Answers = core.NewAnswerCache(env.Eng.Metrics(), 0)
	var served *ScaledOutcome
	for range 2 {
		out, err := RunScaledSessions(env.Eng, tinyTraces(t, 6), cfg)
		if err != nil {
			t.Fatal(err)
		}
		served = out
	}
	dump("predictor_cancel", served.Timings, served.Stats)
	if served.Stats.PredictedGos == 0 {
		t.Error("the trained pass served no GO: the configuration no longer reaches the answer cache")
	}

	// The same speculators without contention: some GO must differ, or the
	// golden pins nothing contention does.
	plain := tinyEnv(t, EnvConfig{Scale: scale, BufferPoolPages: PoolPages96MB})
	for _, c := range []struct {
		scaled []QueryTiming
		tune   func(*core.Config)
	}{{f7, func(c *core.Config) { c.SelectionsOnly = true }}, {always, func(*core.Config) {}}} {
		cfg := core.DefaultConfig()
		cfg.AtGo = core.GoCancel // runMultiUser's policy
		c.tune(&cfg)
		out, err := RunScaledSessions(plain.Eng, traces, cfg)
		if err != nil {
			t.Fatal(err)
		}
		unscaled, err := alignTimings(c.scaled, out.Timings)
		if err != nil {
			t.Fatal(err)
		}
		differ := false
		for i := range unscaled {
			differ = differ || unscaled[i].Seconds != c.scaled[i].Seconds
		}
		if !differ {
			t.Error("no GO took longer under contention: nothing was scaled")
		}
	}
	golden.Check(t, filepath.Join("testdata", "multiuser_contention.golden"), b.String())
}
