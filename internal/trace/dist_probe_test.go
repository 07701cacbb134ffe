package trace

import (
	"math"
	"sort"
	"testing"

	"specdb/internal/sim"
)

// TestThinkTimeDistributionMatchesDraw verifies that measured formulation
// durations reproduce the generator's lognormal draw (no systematic bias
// between drawing a duration and replaying the emitted events).
func TestThinkTimeDistributionMatchesDraw(t *testing.T) {
	r := sim.NewRand(7)
	var draw []float64
	for i := 0; i < 20000; i++ {
		draw = append(draw, clamp(r.LogNormal(math.Log(thinkMedian), thinkSigma), minThink, maxThink))
	}
	sort.Float64s(draw)

	traces, err := GenerateCorpus(testVocabulary(), 15, 7)
	if err != nil {
		t.Fatal(err)
	}
	var ms []float64
	for _, tr := range traces {
		qs, err := ExtractQueries(tr)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range qs {
			ms = append(ms, q.FormulationSeconds())
		}
	}
	sort.Float64s(ms)
	dMed := draw[len(draw)/2]
	mMed := ms[len(ms)/2]
	t.Logf("drawn median %.1f, measured median %.1f (n=%d)", dMed, mMed, len(ms))
	if mMed > dMed*1.35 || mMed < dMed*0.65 {
		t.Fatalf("measured median %.1f far from drawn %.1f", mMed, dMed)
	}
}
