package harness

import (
	"fmt"
	"testing"

	"specdb/internal/core"
	"specdb/internal/tpch"
	"specdb/internal/trace"
)

// specPassPlans is the number of PlanGraph calls one speculating pass over
// the reference corpus makes: each trace on a cold 32 MB pool at 100MB with a
// fresh speculator and learner, as cmd/bench's spec_replay replays it. Every
// call is the cost model's. Without the plan memo (DESIGN.md §5) the pass made
// 2,522, re-planning graphs already planned at the same catalog version.
const specPassPlans = 1087

// TestSpecPassPlansOncePerCatalogVersion pins the engine.plans counter over
// one speculating pass of the seed-7 corpus: the exact count that carries the
// plan memo's gain, read off the engine's registry instead of a wall clock.
func TestSpecPassPlansOncePerCatalogVersion(t *testing.T) {
	traces, err := trace.GenerateCorpus(tpch.Vocabulary(), 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewEnv(EnvConfig{Scale: tpch.Scale100MB, Seed: 42, BufferPoolPages: PoolPages32MB})
	if err != nil {
		t.Fatal(err)
	}
	plans := env.Eng.Metrics().Counter("engine.plans")
	before := plans.Value()
	for i, tr := range traces {
		cfg := core.DefaultConfig()
		cfg.NamePrefix = fmt.Sprintf("spec_t%d", i)
		if _, err := RunTraceWithLearner(env.Eng, i, tr, cfg, core.NewLearner(core.DefaultLearnerConfig())); err != nil {
			t.Fatal(err)
		}
	}
	if got := plans.Value() - before; got != specPassPlans {
		t.Errorf("one speculating pass planned %d graphs, want %d", got, specPassPlans)
	}
}
