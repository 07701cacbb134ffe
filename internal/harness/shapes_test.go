package harness

import (
	"testing"

	"specdb/internal/core"
	"specdb/internal/tpch"
)

// TestPaperShapes turns DESIGN.md §3's expected shapes into assertions on the
// reduced corpus (tinyTraces at 100MB), one subtest per experiment.
func TestPaperShapes(t *testing.T) {
	traces := tinyTraces(t, 3)
	t.Run("F7", func(t *testing.T) {
		// Three simultaneous users gain less than the same traces replayed
		// one at a time on the default configuration.
		single, err := pairedPct(tpch.Scale100MB, 42, traces, func(*core.Config) {})
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.DefaultConfig()
		cfg.SelectionsOnly = true // RunFigure7's configuration
		run := runMultiUserOnce(t, tpch.Scale100MB, 42, traces, cfg)
		f7 := Improvement(seconds(run.normal), seconds(run.paired)) * 100
		t.Logf("F7 %.1f %% against single-user %.1f %%", f7, single)
		if f7 >= single {
			t.Errorf("F7 improves %.1f %%, not below the single-user %.1f %%", f7, single)
		}
	})
}
