package harness

import (
	"fmt"

	"specdb/internal/core"
	"specdb/internal/sim"
	"specdb/internal/tpch"
	"specdb/internal/trace"
)

// PredictOutcome summarizes the whole-query prediction replay (DESIGN.md §14):
// the same corpus replayed twice on one environment with a shared Predictor,
// AnswerCache, and Learner. The first pass trains the n-gram model (and warms
// the answer cache); the metrics below describe the second pass, where the
// predictor has seen every session once and repeated finals can be served
// instantly from the answer cache.
type PredictOutcome struct {
	TrainQueries  int
	ReplayQueries int

	PredictedIssued    int
	PredictedCompleted int
	PredictedCanceled  int
	// PredictedGos counts GO events served from a completed predicted final
	// without executing; PredictedGoRate is the fraction of replay-pass
	// queries they represent.
	PredictedGos    int
	PredictedGoRate float64
	// InstantSavedS is the simulated execution time those GOs avoided (s).
	InstantSavedS float64
	// EquivFailures counts replay-pass GOs — served or executed — whose row
	// multiset (RowSetKey) differs from the speculation-off oracle's answer to
	// the same query. Always expected to be zero; the bench gate fails the
	// build otherwise.
	EquivFailures   int
	AnswerCacheHits int
	// Unholdable counts the predicted finals executed whose answer the cache
	// then refused (larger than the whole cache); UnholdableS is the simulated
	// time they took (s). The admission walk issues none of them, so both are
	// expected to read 0; they complete, so no waste figure would count them.
	Unholdable  int
	UnholdableS float64

	TrainTotalS  float64
	ReplayTotalS float64
}

// RunPredictBench measures whole-query prediction on a fresh environment so
// the caller's legacy metrics stay untouched. oracle is a speculation-off
// replay of the same traces on another environment of the same scale and seed:
// the speculator serves a ready prediction without executing, so the check
// that a served answer is the right one lives here, outside it. Every trace of
// both passes must satisfy the extended quiesce identity
// PredictedIssued == PredictedCompleted + PredictedCanceled.
func RunPredictBench(scaleName string, traces []*trace.Trace, seed uint64, oracle []QueryTiming) (*PredictOutcome, error) {
	scale, err := tpch.ScaleByName(scaleName)
	if err != nil {
		return nil, err
	}
	env, err := NewEnv(EnvConfig{Scale: scale, Seed: seed})
	if err != nil {
		return nil, err
	}
	base := core.DefaultConfig()
	base.Predictor = core.NewPredictor(core.DefaultPredictorConfig())
	base.Answers = core.NewAnswerCache(env.Eng.Metrics(), 0)
	learner := core.NewLearner(core.DefaultLearnerConfig())
	want := make(map[[2]int]uint64, len(oracle))
	for _, t := range oracle {
		want[[2]int{t.TraceIdx, t.QueryIdx}] = t.RowsKey
	}

	reg := env.Eng.Metrics()
	unholdable, unholdableNs := reg.Counter("answers.unholdable"), reg.Counter("answers.unholdable_ns")

	out := &PredictOutcome{}
	for pass := 0; pass < 2; pass++ {
		n0, ns0 := unholdable.Value(), unholdableNs.Value()
		var finals []core.Stats
		queries := 0
		total := 0.0
		for i, tr := range traces {
			cfg := base
			cfg.NamePrefix = fmt.Sprintf("pred_p%d_t%d", pass, i)
			so, err := RunTraceWithLearner(env.Eng, i, tr, cfg, learner)
			if err != nil {
				return nil, fmt.Errorf("harness: predict replay pass %d trace %d: %w", pass, i, err)
			}
			if fs := so.FinalStats; fs.PredictedIssued != fs.PredictedCompleted+fs.PredictedCanceled {
				return nil, fmt.Errorf("harness: predicted-job identity violated in pass %d trace %d: issued %d != completed %d + canceled %d",
					pass, i, fs.PredictedIssued, fs.PredictedCompleted, fs.PredictedCanceled)
			}
			finals = append(finals, so.FinalStats)
			queries += len(so.Timings)
			for _, t := range so.Timings {
				total += t.Seconds
				// A query the oracle never answered counts as a failure too.
				if key, ok := want[[2]int{t.TraceIdx, t.QueryIdx}]; pass == 1 && (!ok || key != t.RowsKey) {
					out.EquivFailures++
				}
			}
		}
		if pass == 0 {
			out.TrainQueries = queries
			out.TrainTotalS = total
			continue
		}
		stats := SumStatsAll(finals)
		out.ReplayQueries = queries
		out.ReplayTotalS = total
		out.PredictedIssued = stats.PredictedIssued
		out.PredictedCompleted = stats.PredictedCompleted
		out.PredictedCanceled = stats.PredictedCanceled
		out.PredictedGos = stats.PredictedGos
		out.AnswerCacheHits = stats.AnswerCacheHits
		out.InstantSavedS = stats.InstantSaved.Seconds()
		out.Unholdable = int(unholdable.Value() - n0)
		out.UnholdableS = sim.Duration(unholdableNs.Value() - ns0).Seconds()
		if queries > 0 {
			out.PredictedGoRate = float64(stats.PredictedGos) / float64(queries)
		}
	}
	return out, nil
}
