package harness

import (
	"fmt"
	"math"
	"strings"

	"specdb/internal/core"
	"specdb/internal/tpch"
	"specdb/internal/trace"
)

// Improvement is the paper's metric (Section 4.1):
// 1 − Σ time_spec / Σ time_normal, as a fraction (×100 for percent).
func Improvement(normalSec, specSec []float64) float64 {
	var n, s float64
	for _, x := range normalSec {
		n += x
	}
	for _, x := range specSec {
		s += x
	}
	if n == 0 {
		return 0
	}
	return 1 - s/n
}

// Bucket is one bar of the Section 6 charts: queries grouped by their
// execution time under normal processing.
type Bucket struct {
	Lo, Hi float64 // normal-execution-time range (seconds)
	Count  int
	// ImprovementPct is the aggregate metric over the bucket's queries.
	ImprovementPct float64
	// MaxImprovementPct / MinImprovementPct are the per-query extremes
	// (Figure 5); Min < 0 is a penalty.
	MaxImprovementPct float64
	MinImprovementPct float64
}

// BucketSpec describes a chart's x-axis.
type BucketSpec struct {
	Lo, Hi, Width float64
	// MinCount drops buckets with fewer queries (the paper requires ≥5 for
	// statistical robustness).
	MinCount int
}

// BucketSpecFor returns the paper's x-axis for a dataset size (Figure 4/5/6
// ranges; the multi-user Figure 7 uses shifted ranges).
func BucketSpecFor(scaleName string, multiUser bool) BucketSpec {
	if multiUser {
		switch scaleName {
		case "100MB":
			return BucketSpec{Lo: 1, Hi: 10, Width: 1, MinCount: 5}
		case "500MB":
			return BucketSpec{Lo: 0, Hi: 100, Width: 10, MinCount: 5}
		default:
			return BucketSpec{Lo: 10, Hi: 160, Width: 30, MinCount: 5}
		}
	}
	switch scaleName {
	case "100MB":
		return BucketSpec{Lo: 3, Hi: 13, Width: 1, MinCount: 5}
	case "500MB":
		return BucketSpec{Lo: 15, Hi: 65, Width: 5, MinCount: 5}
	default:
		return BucketSpec{Lo: 30, Hi: 140, Width: 10, MinCount: 5}
	}
}

// BucketImprovements groups paired timings by normal execution time and
// computes the per-bucket aggregate and extreme improvements.
func BucketImprovements(normal, spec []QueryTiming, bs BucketSpec) []Bucket {
	if len(normal) != len(spec) {
		// Programmer invariant: both slices come from replaying the same
		// trace, so a length mismatch means the harness itself is broken.
		panic("harness: unpaired timings")
	}
	nb := int(math.Ceil((bs.Hi - bs.Lo) / bs.Width))
	type acc struct {
		n, s     float64
		count    int
		max, min float64
	}
	accs := make([]acc, nb)
	for i := range accs {
		accs[i].max = math.Inf(-1)
		accs[i].min = math.Inf(1)
	}
	for i := range normal {
		t := normal[i].Seconds
		if t < bs.Lo || t >= bs.Hi {
			continue
		}
		b := int((t - bs.Lo) / bs.Width)
		a := &accs[b]
		a.n += t
		a.s += spec[i].Seconds
		a.count++
		imp := 0.0
		if t > 0 {
			imp = (1 - spec[i].Seconds/t) * 100
		}
		if imp > a.max {
			a.max = imp
		}
		if imp < a.min {
			a.min = imp
		}
	}
	var out []Bucket
	for i, a := range accs {
		if a.count < bs.MinCount || a.n == 0 {
			continue
		}
		out = append(out, Bucket{
			Lo:                bs.Lo + float64(i)*bs.Width,
			Hi:                bs.Lo + float64(i+1)*bs.Width,
			Count:             a.count,
			ImprovementPct:    (1 - a.s/a.n) * 100,
			MaxImprovementPct: a.max,
			MinImprovementPct: a.min,
		})
	}
	return out
}

// InRangeImprovement computes the aggregate metric over the paired queries
// whose NORMAL duration falls within the bucket range.
func InRangeImprovement(normal, spec []QueryTiming, bs BucketSpec) float64 {
	var n, s float64
	for i := range normal {
		t := normal[i].Seconds
		if t < bs.Lo || t >= bs.Hi {
			continue
		}
		n += t
		s += spec[i].Seconds
	}
	if n == 0 {
		return 0
	}
	return 1 - s/n
}

func seconds(ts []QueryTiming) []float64 {
	out := make([]float64, len(ts))
	for i, t := range ts {
		out[i] = t.Seconds
	}
	return out
}

// alignTimings returns, for each timing of normal, the timing of the same
// (user, query) in other — two replays of the same traces answer the same
// queries, in orders that differ with the clocks.
func alignTimings(normal, other []QueryTiming) ([]QueryTiming, error) {
	byQuery := make(map[[2]int]QueryTiming, len(other))
	for _, t := range other {
		byQuery[[2]int{t.TraceIdx, t.QueryIdx}] = t
	}
	out := make([]QueryTiming, len(normal))
	for i, n := range normal {
		t, ok := byQuery[[2]int{n.TraceIdx, n.QueryIdx}]
		if !ok {
			return nil, fmt.Errorf("harness: replays disagree: no timing for user %d query %d", n.TraceIdx, n.QueryIdx)
		}
		out[i] = t
	}
	return out, nil
}

// SpecVsNormalResult is one dataset-size run of the main experiment,
// feeding both Figure 4 (averages) and Figure 5 (extremes).
type SpecVsNormalResult struct {
	Scale   string
	Buckets []Bucket
	// OverallPct is the aggregate improvement over every query.
	OverallPct float64
	// InRangePct is the aggregate improvement over the queries inside the
	// paper's bucket range — the paper's headline averages (42/28/20 %)
	// are computed over these "initial time ranges that include the great
	// majority of queries" (Section 6).
	InRangePct float64
	// AvgMaterializationSec reproduces the paper's per-size average
	// materialization time (6 / 9 / 10 s).
	AvgMaterializationSec float64
	// IncompletePct is the share of issued manipulations still running at
	// a GO (the paper reports 17 / 25 / 30 %; incompletePct).
	IncompletePct float64
	Stats         core.Stats
}

// RunSpecVsNormal runs the Figure 4/5 experiment for one dataset size.
func RunSpecVsNormal(scaleName string, traces []*trace.Trace, seed uint64) (*SpecVsNormalResult, error) {
	scale, err := tpch.ScaleByName(scaleName)
	if err != nil {
		return nil, err
	}
	env, err := NewEnv(EnvConfig{Scale: scale, Seed: seed})
	if err != nil {
		return nil, err
	}
	pr, err := RunPaired(env, traces, core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	bs := BucketSpecFor(scaleName, false)
	res := &SpecVsNormalResult{
		Scale:      scaleName,
		Buckets:    BucketImprovements(pr.Normal, pr.Spec, bs),
		OverallPct: Improvement(seconds(pr.Normal), seconds(pr.Spec)) * 100,
		InRangePct: InRangeImprovement(pr.Normal, pr.Spec, bs) * 100,
		Stats:      pr.Stats,
	}
	if pr.Stats.MaterializationsIssued > 0 {
		res.AvgMaterializationSec = pr.Stats.MaterializationTime.Seconds() / float64(pr.Stats.MaterializationsIssued)
	}
	res.IncompletePct = incompletePct(pr.Stats)
	return res, nil
}

// incompletePct is the share of issued manipulations, in percent, that were
// still running at a GO: canceled there (GoCancel) or run on across it
// (GoContinue).
func incompletePct(st core.Stats) float64 {
	if st.Issued == 0 {
		return 0
	}
	return 100 * float64(st.CanceledAtGo+st.ContinuedAtGo) / float64(st.Issued)
}

// Figure6Result compares Views, Spec, and Spec+Views against normal
// processing without views, per bucket (Section 6.2).
type Figure6Result struct {
	Scale   string
	Views   []Bucket
	Spec    []Bucket
	Both    []Bucket
	Overall struct {
		ViewsPct, SpecPct, BothPct float64
	}
}

// RunFigure6 runs the three-way comparison for one dataset size.
func RunFigure6(scaleName string, traces []*trace.Trace, seed uint64) (*Figure6Result, error) {
	scale, err := tpch.ScaleByName(scaleName)
	if err != nil {
		return nil, err
	}
	// Baseline + Spec run on a view-less database.
	plain, err := NewEnv(EnvConfig{Scale: scale, Seed: seed})
	if err != nil {
		return nil, err
	}
	pr, err := RunPaired(plain, traces, core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	baseline, spec := pr.Normal, pr.Spec

	// Views + Spec+Views run on the pre-materialized battery.
	viewEnv, err := NewEnv(EnvConfig{Scale: scale, Seed: seed, PrematerializeViews: true})
	if err != nil {
		return nil, err
	}
	var viewsOnly []QueryTiming
	for i, tr := range traces {
		vt, err := RunTraceNormal(viewEnv.Eng, i, tr)
		if err != nil {
			return nil, err
		}
		viewsOnly = append(viewsOnly, vt...)
	}
	var both []QueryTiming
	for i, tr := range traces {
		so, err := RunTraceSpeculative(viewEnv.Eng, i, tr, core.DefaultConfig())
		if err != nil {
			return nil, err
		}
		both = append(both, so.Timings...)
	}

	bs := BucketSpecFor(scaleName, false)
	res := &Figure6Result{
		Scale: scaleName,
		Views: BucketImprovements(baseline, viewsOnly, bs),
		Spec:  BucketImprovements(baseline, spec, bs),
		Both:  BucketImprovements(baseline, both, bs),
	}
	res.Overall.ViewsPct = Improvement(seconds(baseline), seconds(viewsOnly)) * 100
	res.Overall.SpecPct = Improvement(seconds(baseline), seconds(spec)) * 100
	res.Overall.BothPct = Improvement(seconds(baseline), seconds(both)) * 100
	return res, nil
}

// Figure7Result is the multi-user experiment (Section 6.3).
type Figure7Result struct {
	Scale      string
	Buckets    []Bucket
	OverallPct float64
	Stats      core.Stats
}

// RunFigure7 replays three simultaneous traces with the 96 MB-equivalent
// pool, selections-only enumeration, and the contention model.
func RunFigure7(scaleName string, traces []*trace.Trace, seed uint64) (*Figure7Result, error) {
	scale, err := tpch.ScaleByName(scaleName)
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig()
	cfg.SelectionsOnly = true
	normal, paired, stats, err := runMultiUser(scale, seed, traces, cfg)
	if err != nil {
		return nil, err
	}
	return &Figure7Result{
		Scale:      scaleName,
		Buckets:    BucketImprovements(normal, paired, BucketSpecFor(scaleName, true)),
		OverallPct: Improvement(seconds(normal), seconds(paired)) * 100,
		Stats:      stats,
	}, nil
}

// runMultiUser is the Section 6.3 setting: at most three traces replayed at
// once on a fresh environment with the 96 MB-equivalent pool and the
// contention model, first speculation-off, then with cfg. It returns the
// normal timings, the speculative timings paired with them, and the
// speculative sessions' summed counters.
func runMultiUser(scale tpch.Scale, seed uint64, traces []*trace.Trace, cfg core.Config) (normal, paired []QueryTiming, stats core.Stats, err error) {
	if len(traces) > 3 {
		traces = traces[:3]
	}
	env, err := NewEnv(EnvConfig{Scale: scale, Seed: seed, BufferPoolPages: PoolPages96MB})
	if err != nil {
		return nil, nil, stats, err
	}
	if normal, err = RunMultiUserNormal(env.Eng, traces); err != nil {
		return nil, nil, stats, err
	}
	cfg.ContentionFactor = 0.35
	// Under the contention model a job that ran on across a GO would stretch
	// that GO (Speculator.contended), the think-time work queueing ahead of
	// the foreground; the multi-user experiments keep the paper's
	// cancel-at-GO convention, under which nothing is in flight beside a GO.
	cfg.AtGo = core.GoCancel
	spec, err := RunScaledSessions(env.Eng, traces, cfg)
	if err != nil {
		return nil, nil, stats, err
	}
	paired, err = alignTimings(normal, spec.Timings)
	return normal, paired, spec.Stats, err
}

// pairedPct runs one paired replay on a fresh default environment, with the
// default speculator configuration changed by tune, and returns the
// improvement in percent.
func pairedPct(scale tpch.Scale, seed uint64, traces []*trace.Trace, tune func(*core.Config)) (float64, error) {
	env, err := NewEnv(EnvConfig{Scale: scale, Seed: seed})
	if err != nil {
		return 0, err
	}
	cfg := core.DefaultConfig()
	tune(&cfg)
	pr, err := RunPaired(env, traces, cfg)
	if err != nil {
		return 0, err
	}
	return Improvement(seconds(pr.Normal), seconds(pr.Spec)) * 100, nil
}

// AblationResult compares manipulation families (the Section 3.2 claim).
type AblationResult struct {
	Scale string
	// PctByFamily maps family name → overall improvement.
	PctByFamily map[string]float64
}

// RunAblationManipulations runs the A1 ablation: one manipulation family
// enabled at a time, on one dataset size.
func RunAblationManipulations(scaleName string, traces []*trace.Trace, seed uint64) (*AblationResult, error) {
	scale, err := tpch.ScaleByName(scaleName)
	if err != nil {
		return nil, err
	}
	families := []struct {
		name string
		ops  core.OpSet
	}{
		{"materialize", core.OpSet{Materialize: true}},
		{"index", core.OpSet{Index: true}},
		{"histogram", core.OpSet{Histogram: true}},
		{"stage", core.OpSet{Stage: true}},
	}
	res := &AblationResult{Scale: scaleName, PctByFamily: map[string]float64{}}
	for _, fam := range families {
		pct, err := pairedPct(scale, seed, traces, func(c *core.Config) {
			c.Ops = fam.ops
			c.MinBenefit = 0
		})
		if err != nil {
			return nil, fmt.Errorf("harness: ablation %s: %w", fam.name, err)
		}
		res.PctByFamily[fam.name] = pct
	}
	return res, nil
}

// MemoryResidentResult is the A2 experiment (Section 6.1 prose): the pool
// holds the whole database, so I/O is free after warm-up; speculation must
// still win on CPU work.
type MemoryResidentResult struct {
	Scale      string
	OverallPct float64
}

// RunMemoryResident runs the paired experiment with a pool larger than the
// dataset and a warm start.
func RunMemoryResident(scaleName string, traces []*trace.Trace, seed uint64) (*MemoryResidentResult, error) {
	scale, err := tpch.ScaleByName(scaleName)
	if err != nil {
		return nil, err
	}
	env, err := NewEnv(EnvConfig{Scale: scale, Seed: seed, BufferPoolPages: 1 << 17})
	if err != nil {
		return nil, err
	}
	normal, spec, err := replayMemoryResident(env, traces)
	if err != nil {
		return nil, err
	}
	return &MemoryResidentResult{
		Scale:      scaleName,
		OverallPct: Improvement(seconds(normal), seconds(spec)) * 100,
	}, nil
}

// replayMemoryResident warms env's pool, then replays every trace without
// speculation and again with it, never cold-starting in between.
func replayMemoryResident(env *Env, traces []*trace.Trace) (normal, spec []QueryTiming, err error) {
	// Warm the pool: one pass over every table.
	for _, name := range env.Eng.Catalog.TableNames() {
		if _, err := env.Eng.Exec("SELECT * FROM " + name); err != nil {
			return nil, nil, err
		}
	}
	for i, tr := range traces {
		// No ColdStart between traces: memory-resident means staying warm.
		qs, err := replayNormal(env.Eng, []*trace.Trace{tr})
		if err != nil {
			return nil, nil, err
		}
		for j := range qs {
			qs[j].TraceIdx = i
		}
		normal = append(normal, qs...)
	}
	for i, tr := range traces {
		cfg := core.DefaultConfig()
		cfg.NamePrefix = fmt.Sprintf("specw_t%d", i)
		so, err := replayTrace(env.Eng, i, tr, cfg, core.NewLearner(core.DefaultLearnerConfig()))
		if err != nil {
			return nil, nil, err
		}
		spec = append(spec, so.Timings...)
	}
	return normal, spec, nil
}

// LookaheadResult is the A3 ablation over the cost model's future-query
// depth n (Section 3.3's extension).
type LookaheadResult struct {
	Scale  string
	PctByN map[int]float64
	Depths []int
}

// RunLookahead compares lookahead depths.
func RunLookahead(scaleName string, traces []*trace.Trace, seed uint64, depths []int) (*LookaheadResult, error) {
	scale, err := tpch.ScaleByName(scaleName)
	if err != nil {
		return nil, err
	}
	res := &LookaheadResult{Scale: scaleName, PctByN: map[int]float64{}, Depths: depths}
	for _, n := range depths {
		pct, err := pairedPct(scale, seed, traces, func(c *core.Config) { c.Lookahead = n })
		if err != nil {
			return nil, err
		}
		res.PctByN[n] = pct
	}
	return res, nil
}

// GoPolicyResult is the A4 experiment: what a GO does with the
// manipulations still in flight — let them run on (the default) or cancel
// them (the paper's conservative convention).
type GoPolicyResult struct {
	Scale       string
	ContinuePct float64 // improvement with core.GoContinue
	CancelPct   float64 // improvement with core.GoCancel
}

// RunGoPolicyAblation compares the two GO policies on one dataset size.
func RunGoPolicyAblation(scaleName string, traces []*trace.Trace, seed uint64) (*GoPolicyResult, error) {
	scale, err := tpch.ScaleByName(scaleName)
	if err != nil {
		return nil, err
	}
	res := &GoPolicyResult{Scale: scaleName}
	for _, row := range []struct {
		policy core.GoPolicy
		pct    *float64
	}{{core.GoContinue, &res.ContinuePct}, {core.GoCancel, &res.CancelPct}} {
		pct, err := pairedPct(scale, seed, traces, func(c *core.Config) { c.AtGo = row.policy })
		if err != nil {
			return nil, err
		}
		*row.pct = pct
	}
	return res, nil
}

// SuspendAblationResult is the A5 experiment: the Section 7 load-aware
// proposal — suspend speculation while the server is busy — in the
// multi-user setting.
type SuspendAblationResult struct {
	Scale      string
	AlwaysPct  float64 // improvement without suspension
	SuspendPct float64 // improvement when suspending under load
	Suspended  int
}

// RunSuspendAblation compares the two load policies with three simultaneous
// users (full enumeration, where interference is worst).
func RunSuspendAblation(scaleName string, traces []*trace.Trace, seed uint64) (*SuspendAblationResult, error) {
	scale, err := tpch.ScaleByName(scaleName)
	if err != nil {
		return nil, err
	}
	res := &SuspendAblationResult{Scale: scaleName}
	for _, suspend := range []bool{false, true} {
		cfg := core.DefaultConfig()
		if suspend {
			cfg.SuspendWhenBusy = 1
		}
		normal, paired, stats, err := runMultiUser(scale, seed, traces, cfg)
		if err != nil {
			return nil, err
		}
		pct := Improvement(seconds(normal), seconds(paired)) * 100
		if suspend {
			res.SuspendPct = pct
			res.Suspended = stats.Suspended
		} else {
			res.AlwaysPct = pct
		}
	}
	return res, nil
}

// RenderBuckets prints a bucket series as a fixed-width table.
func RenderBuckets(buckets []Bucket, withExtremes bool) string {
	var b strings.Builder
	if withExtremes {
		fmt.Fprintf(&b, "%-12s %6s %8s %8s %8s\n", "bucket(s)", "n", "avg%", "max%", "min%")
		for _, bk := range buckets {
			fmt.Fprintf(&b, "%5.0f-%-6.0f %6d %8.1f %8.1f %8.1f\n",
				bk.Lo, bk.Hi, bk.Count, bk.ImprovementPct, bk.MaxImprovementPct, bk.MinImprovementPct)
		}
	} else {
		fmt.Fprintf(&b, "%-12s %6s %8s\n", "bucket(s)", "n", "avg%")
		for _, bk := range buckets {
			fmt.Fprintf(&b, "%5.0f-%-6.0f %6d %8.1f\n", bk.Lo, bk.Hi, bk.Count, bk.ImprovementPct)
		}
	}
	return b.String()
}

// BenchResult is the observability benchmark summary (written by
// cmd/experiments -exp bench as BENCH_spec.json): one paired spec-off /
// spec-on replay of the corpus with the headline speculation metrics. Every
// field is simulated time or a count, so the file is machine-independent;
// wall-clock numbers live in cmd/bench. RunBench replays core.DefaultConfig(),
// whose GO policy is core.GoContinue and which does not set SuspendWhenBusy,
// so CanceledAtGo and Suspended are 0 by construction (the 29 suspended
// belong to -exp a5).
type BenchResult struct {
	Scale    string `json:"scale"`
	Users    int    `json:"users"`
	Seed     uint64 `json:"seed"`
	DataSeed uint64 `json:"data_seed"`
	Queries  int    `json:"queries"`

	// SpecOffTotalS and SpecOnTotalS are total simulated response times (s).
	SpecOffTotalS float64 `json:"spec_off_total_s"`
	SpecOnTotalS  float64 `json:"spec_on_total_s"`
	// RelativeResponseTime is SpecOnTotalS / SpecOffTotalS; the paper's
	// improvement metric is 1 − this ratio (ImprovementPct, in percent).
	RelativeResponseTime float64 `json:"relative_response_time"`
	ImprovementPct       float64 `json:"improvement_pct"`

	// HitRate is Hits / (Hits + Misses): the fraction of final queries whose
	// plan used at least one completed speculative materialization.
	HitRate float64 `json:"hit_rate"`
	// WasteS is simulated manipulation time that never served a query (s).
	WasteS float64 `json:"waste_s"`
	// IncompletePct is the share of issued manipulations still running at a
	// GO, canceled there or run on across it (incompletePct).
	IncompletePct       float64 `json:"incomplete_pct"`
	AvgMaterializationS float64 `json:"avg_materialization_s"`

	Issued              int `json:"issued"`
	Completed           int `json:"completed"`
	CanceledInvalidated int `json:"canceled_invalidated"`
	CanceledAtGo        int `json:"canceled_at_go"`
	ContinuedAtGo       int `json:"continued_at_go"`
	GarbageCollected    int `json:"garbage_collected"`
	Hits                int `json:"hits"`
	Misses              int `json:"misses"`
	Suspended           int `json:"suspended"`

	// Scaled-session cross-session CSE comparison (DESIGN.md §11): the same
	// ScaledSessions-session merged replay run twice — shared speculation off,
	// then on — over identical traces and a fresh identical dataset each time.
	ScaledSessions int `json:"scaled_sessions"`
	// SharedBuilds counts registry builds that reached >= 2 consumers in the
	// CSE-on run; DedupSavedS is the total build time attachments avoided.
	SharedBuilds int     `json:"shared_builds"`
	DedupSavedS  float64 `json:"dedup_saved_s"`
	// ScaledWasteOffS / ScaledWasteOnS are total wasted manipulation seconds
	// without and with CSE; ScaledWasteReductionPct = 100·(1 − on/off).
	ScaledWasteOffS         float64 `json:"scaled_waste_off_s"`
	ScaledWasteOnS          float64 `json:"scaled_waste_on_s"`
	ScaledWasteReductionPct float64 `json:"scaled_waste_reduction_pct"`
	ScaledHitRateOff        float64 `json:"scaled_hit_rate_off"`
	ScaledHitRateOn         float64 `json:"scaled_hit_rate_on"`

	// Overload and degradation counters (DESIGN.md §13). Shed counts every
	// speculative build the governor dropped under pressure — in-flight
	// cancellations plus retained completed builds — and DeadlineAborts the
	// builds killed by the stuck-job watchdog. Both zero in the default
	// governor-off bench run.
	Shed           int `json:"shed"`
	DeadlineAborts int `json:"deadline_aborts"`

	// Whole-query prediction replay (DESIGN.md §14), measured by
	// RunPredictBench on a separate fresh environment so every field above is
	// untouched by the predictor: the corpus runs twice with a shared n-gram
	// predictor and answer cache, and the second (trained) pass reports the
	// fraction of GOs served from a completed predicted final without
	// executing, the simulated seconds that saved, and the count of its
	// answers that differ from the speculation-off replay above (which the
	// bench gate requires to be zero).
	PredictedGoRate      float64 `json:"predicted_go_rate"`
	InstantGoSavedS      float64 `json:"instant_go_s_saved"`
	PredictEquivFailures int     `json:"predict_equiv_failures"`
	PredictedIssued      int     `json:"predicted_issued"`
	PredictedGos         int     `json:"predicted_gos"`
	AnswerCacheHits      int     `json:"answer_cache_hits"`
	// PredictedUnholdable counts the replay pass's executed predictions whose
	// answer the cache refused, and PredictedUnholdableS the simulated seconds
	// they ran: none of them can ever answer a GO, and waste would never count
	// them. The admission walk skips such finals, so both read 0.
	PredictedUnholdable  int     `json:"predicted_unholdable"`
	PredictedUnholdableS float64 `json:"predicted_unholdable_s"`
}

// RunBench executes the paired replay once and summarizes it for the bench
// report. seed is the dataset seed; corpus identity travels in the traces.
func RunBench(scaleName string, traces []*trace.Trace, seed uint64) (*BenchResult, error) {
	scale, err := tpch.ScaleByName(scaleName)
	if err != nil {
		return nil, err
	}
	env, err := NewEnv(EnvConfig{Scale: scale, Seed: seed})
	if err != nil {
		return nil, err
	}
	pr, err := RunPaired(env, traces, core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	var off, on float64
	for _, t := range pr.Normal {
		off += t.Seconds
	}
	for _, t := range pr.Spec {
		on += t.Seconds
	}
	res := &BenchResult{
		Scale:               scaleName,
		Users:               len(traces),
		DataSeed:            seed,
		Queries:             len(pr.Normal),
		SpecOffTotalS:       off,
		SpecOnTotalS:        on,
		Issued:              pr.Stats.Issued,
		Completed:           pr.Stats.Completed,
		CanceledInvalidated: pr.Stats.CanceledInvalidated,
		CanceledAtGo:        pr.Stats.CanceledAtGo,
		ContinuedAtGo:       pr.Stats.ContinuedAtGo,
		GarbageCollected:    pr.Stats.GarbageCollected,
		Hits:                pr.Stats.Hits,
		Misses:              pr.Stats.Misses,
		WasteS:              pr.Stats.Waste.Seconds(),
		Suspended:           pr.Stats.Suspended,
		Shed:                pr.Stats.Shed + pr.Stats.ShedRetained,
		DeadlineAborts:      pr.Stats.DeadlineAborts,
	}
	if off > 0 {
		res.RelativeResponseTime = on / off
		res.ImprovementPct = (1 - on/off) * 100
	}
	if t := pr.Stats.Hits + pr.Stats.Misses; t > 0 {
		res.HitRate = float64(pr.Stats.Hits) / float64(t)
	}
	res.IncompletePct = incompletePct(pr.Stats)
	if pr.Stats.MaterializationsIssued > 0 {
		res.AvgMaterializationS = pr.Stats.MaterializationTime.Seconds() / float64(pr.Stats.MaterializationsIssued)
	}
	// The prediction replay runs last, on its own identically-seeded
	// environment, so the paired-replay numbers above cannot shift; the paired
	// replay's speculation-off half is its answer oracle.
	po, err := RunPredictBench(scaleName, traces, seed, pr.Normal)
	if err != nil {
		return nil, err
	}
	res.PredictedGoRate = po.PredictedGoRate
	res.InstantGoSavedS = po.InstantSavedS
	res.PredictEquivFailures = po.EquivFailures
	res.PredictedIssued = po.PredictedIssued
	res.PredictedGos = po.PredictedGos
	res.AnswerCacheHits = po.AnswerCacheHits
	res.PredictedUnholdable = po.Unholdable
	res.PredictedUnholdableS = po.UnholdableS
	return res, nil
}

// ScaledBenchResult is one cross-session CSE comparison at scale: the same
// merged replay of Sessions short sessions, run with shared speculation off
// and then on, over identical traces and identical fresh datasets.
type ScaledBenchResult struct {
	Sessions     int
	WasteOffS    float64
	WasteOnS     float64
	HitRateOff   float64
	HitRateOn    float64
	SharedBuilds int
	DedupSavedS  float64
}

// WasteReductionPct is 100·(1 − on/off), the headline scaled metric the bench
// gate tracks (0 when the off run wasted nothing).
func (r *ScaledBenchResult) WasteReductionPct() float64 {
	if r.WasteOffS == 0 {
		return 0
	}
	return (1 - r.WasteOnS/r.WasteOffS) * 100
}

// RunScaledBench runs the scaled-session CSE experiment: sessions concurrent
// simulated sessions over one database, CSE off versus on. Each mode gets a
// fresh identically seeded environment, so the replays differ only in whether
// the ledger shares builds.
func RunScaledBench(scaleName string, sessions int, seed uint64) (*ScaledBenchResult, error) {
	scale, err := tpch.ScaleByName(scaleName)
	if err != nil {
		return nil, err
	}
	traces, err := ScaledCorpus(tpch.Vocabulary(), sessions, seed)
	if err != nil {
		return nil, err
	}
	res := &ScaledBenchResult{Sessions: sessions}
	for _, cse := range []bool{false, true} {
		env, err := NewEnv(EnvConfig{Scale: scale, Seed: seed, BufferPoolPages: PoolPages96MB})
		if err != nil {
			return nil, err
		}
		cfg := core.DefaultConfig()
		cfg.Ledger = core.NewLedger(env.Eng.Metrics(), cse)
		out, err := RunScaledSessions(env.Eng, traces, cfg)
		if err != nil {
			return nil, err
		}
		hitRate := 0.0
		if t := out.Stats.Hits + out.Stats.Misses; t > 0 {
			hitRate = float64(out.Stats.Hits) / float64(t)
		}
		if cse {
			res.WasteOnS = out.Stats.Waste.Seconds()
			res.HitRateOn = hitRate
			res.SharedBuilds = out.SharedBuilds
			res.DedupSavedS = out.DedupSaved.Seconds()
		} else {
			res.WasteOffS = out.Stats.Waste.Seconds()
			res.HitRateOff = hitRate
		}
	}
	return res, nil
}
