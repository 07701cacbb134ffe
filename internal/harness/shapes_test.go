package harness

import (
	"math"
	"testing"

	"specdb/internal/core"
	"specdb/internal/tpch"
)

// TestPaperShapes turns DESIGN.md §3's expected shapes into assertions on the
// reduced corpus (tinyTraces at 100MB, and at 500MB where a shape is about
// size), one subtest per experiment. 1GB would add about 8 s.
func TestPaperShapes(t *testing.T) {
	traces := tinyTraces(t, 3)
	// Figures 4 and 5 read the same paired replays, one per dataset size,
	// each on a fresh default environment.
	scales := []tpch.Scale{tpch.Scale100MB, tpch.Scale500MB}
	var runs []*PairedRun
	paired := func(t *testing.T) []*PairedRun {
		t.Helper()
		for len(runs) < len(scales) {
			env, err := NewEnv(EnvConfig{Scale: scales[len(runs)], Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			pr, err := RunPaired(env, traces, core.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			runs = append(runs, pr)
		}
		return runs
	}
	t.Run("F4", func(t *testing.T) {
		// Speculation gains at every size, and gains less as the data grows
		// against the same think times.
		prev := math.Inf(1)
		for i, pr := range paired(t) {
			pct := Improvement(seconds(pr.Normal), seconds(pr.Spec)) * 100
			t.Logf("F4 %s: %.1f %%", scales[i].Name, pct)
			if pct <= 0 || pct >= prev {
				t.Errorf("F4 %s improves %.1f %%: want positive and below the smaller size's %.1f %%", scales[i].Name, pct, prev)
			}
			prev = pct
		}
	})
	t.Run("F5", func(t *testing.T) {
		// Some query gains nearly everything, and the worst penalty is far
		// smaller than the best gain.
		for i, pr := range paired(t) {
			best, worst := math.Inf(-1), math.Inf(1)
			for q, n := range pr.Normal {
				if n.Seconds == 0 {
					continue
				}
				imp := (1 - pr.Spec[q].Seconds/n.Seconds) * 100
				best, worst = max(best, imp), min(worst, imp)
			}
			t.Logf("F5 %s: max improvement %.1f %%, max penalty %.1f %%", scales[i].Name, best, worst)
			if best < 90 || -worst > best/4 {
				t.Errorf("F5 %s: max improvement %.1f %%, max penalty %.1f %%: want ≥ 90 %% and a penalty under a quarter of it", scales[i].Name, best, worst)
			}
		}
	})
	t.Run("F7", func(t *testing.T) {
		// Three simultaneous users gain less than the same traces replayed
		// one at a time on the default configuration.
		pr := paired(t)[0]
		single := Improvement(seconds(pr.Normal), seconds(pr.Spec)) * 100
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
