package harness

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"specdb/internal/core"
	"specdb/internal/tpch"
	"specdb/internal/trace"
)

// tinyScale keeps integration tests fast while exercising every code path.
var tinyScale = tpch.NewScale("tiny", 0.002)

func tinyEnv(t *testing.T, cfg EnvConfig) *Env {
	t.Helper()
	if cfg.Scale.Name == "" {
		cfg.Scale = tinyScale
	}
	if cfg.Seed == 0 {
		cfg.Seed = 42
	}
	env, err := NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func tinyTraces(t *testing.T, n int) []*trace.Trace {
	t.Helper()
	traces, err := trace.GenerateCorpus(tpch.Vocabulary(), n, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Shorten the sessions for test speed.
	for i, tr := range traces {
		cfg := trace.DefaultGenConfig(tr.User, tr.Seed)
		cfg.NumQueries = 12
		cfg.NumTasks = 2
		short, err := trace.Generate(tpch.Vocabulary(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		traces[i] = short
	}
	return traces
}

func TestImprovementMetric(t *testing.T) {
	if got := Improvement([]float64{10, 10}, []float64{5, 5}); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("Improvement = %v, want 0.5", got)
	}
	if got := Improvement([]float64{10}, []float64{12}); math.Abs(got+0.2) > 1e-12 {
		t.Fatalf("penalty = %v, want -0.2", got)
	}
	if got := Improvement(nil, nil); got != 0 {
		t.Fatalf("empty = %v", got)
	}
}

func TestBucketImprovements(t *testing.T) {
	mk := func(secs ...float64) []QueryTiming {
		out := make([]QueryTiming, len(secs))
		for i, s := range secs {
			out[i] = QueryTiming{QueryIdx: i, Seconds: s}
		}
		return out
	}
	normal := mk(3.5, 3.6, 3.7, 3.8, 3.9, 4.5, 4.6, 20) // 20 is out of range
	spec := mk(1.75, 1.8, 3.7, 3.8, 3.9, 4.5, 4.6, 5)
	bs := BucketSpec{Lo: 3, Hi: 13, Width: 1, MinCount: 5}
	buckets := BucketImprovements(normal, spec, bs)
	if len(buckets) != 1 { // bucket 4-5 has only 2 queries (< MinCount)
		t.Fatalf("buckets = %+v", buckets)
	}
	b := buckets[0]
	if b.Lo != 3 || b.Hi != 4 || b.Count != 5 {
		t.Fatalf("bucket %+v", b)
	}
	// Two queries halved, three unchanged: aggregate < 50, max = 50, min = 0.
	if b.ImprovementPct <= 0 || b.ImprovementPct >= 50 {
		t.Fatalf("aggregate %v", b.ImprovementPct)
	}
	if math.Abs(b.MaxImprovementPct-50) > 0.1 || math.Abs(b.MinImprovementPct) > 0.1 {
		t.Fatalf("extremes %v / %v", b.MaxImprovementPct, b.MinImprovementPct)
	}
	// In-range improvement ignores the 20s query.
	inRange := InRangeImprovement(normal, spec, bs)
	all := Improvement(seconds(normal), seconds(spec))
	if inRange <= 0 || all <= inRange {
		t.Fatalf("in-range %v vs overall %v (overall includes the big win at 20s)", inRange, all)
	}
}

func TestBucketSpecFor(t *testing.T) {
	for _, scale := range []string{"100MB", "500MB", "1GB"} {
		for _, mu := range []bool{false, true} {
			bs := BucketSpecFor(scale, mu)
			if bs.Hi <= bs.Lo || bs.Width <= 0 || bs.MinCount < 1 {
				t.Fatalf("bad spec %+v for %s/%v", bs, scale, mu)
			}
		}
	}
	if BucketSpecFor("100MB", false).Lo != 3 {
		t.Fatal("100MB range should start at 3s (paper)")
	}
}

func TestPairedRunProducesAlignedTimings(t *testing.T) {
	env := tinyEnv(t, EnvConfig{})
	traces := tinyTraces(t, 2)
	pr, err := RunPaired(env, traces, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(pr.Normal) == 0 || len(pr.Normal) != len(pr.Spec) {
		t.Fatalf("timings %d/%d", len(pr.Normal), len(pr.Spec))
	}
	for i := range pr.Normal {
		if pr.Normal[i].TraceIdx != pr.Spec[i].TraceIdx || pr.Normal[i].QueryIdx != pr.Spec[i].QueryIdx {
			t.Fatalf("pairing broken at %d", i)
		}
		// Answers must agree: speculation may never change results.
		if pr.Normal[i].Rows != pr.Spec[i].Rows {
			t.Fatalf("query %d/%d: normal %d rows, spec %d rows",
				pr.Normal[i].TraceIdx, pr.Normal[i].QueryIdx, pr.Normal[i].Rows, pr.Spec[i].Rows)
		}
	}
	// No speculative leftovers in the catalog.
	for _, name := range env.Eng.Catalog.TableNames() {
		if len(name) >= 4 && name[:4] == "spec" {
			t.Fatalf("speculative table %q leaked", name)
		}
	}
}

func TestPairedRunDeterminism(t *testing.T) {
	traces := tinyTraces(t, 1)
	run := func() []QueryTiming {
		env := tinyEnv(t, EnvConfig{})
		pr, err := RunPaired(env, traces, core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return pr.Spec
	}
	a, b := run(), run()
	for i := range a {
		if a[i].Seconds != b[i].Seconds || a[i].Rows != b[i].Rows {
			t.Fatalf("non-deterministic at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestMemoryResidentSidesRunTheSameQuery holds A2's two replays to the same
// query: the normal side binds each final query's projections and
// fingerprints its rows as the speculative side does, so every (trace,
// query) agrees on rows and RowsKey.
func TestMemoryResidentSidesRunTheSameQuery(t *testing.T) {
	env := tinyEnv(t, EnvConfig{BufferPoolPages: 1 << 12})
	normal, spec, err := replayMemoryResident(env, tinyTraces(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(normal) == 0 || len(normal) != len(spec) {
		t.Fatalf("timings %d/%d", len(normal), len(spec))
	}
	for i, n := range normal {
		s := spec[i]
		if n.TraceIdx != s.TraceIdx || n.QueryIdx != s.QueryIdx {
			t.Fatalf("pairing broken at %d", i)
		}
		if n.Rows != s.Rows || n.RowsKey != s.RowsKey {
			t.Errorf("trace %d query %d: normal %d rows key %x, speculative %d rows key %x",
				n.TraceIdx, n.QueryIdx, n.Rows, n.RowsKey, s.Rows, s.RowsKey)
		}
	}
}

func TestPrematerializedViews(t *testing.T) {
	env := tinyEnv(t, EnvConfig{PrematerializeViews: true})
	if len(env.Views) < 10 {
		t.Fatalf("only %d views prematerialized", len(env.Views))
	}
	// Views include the full 6-relation join and the customer-orders pair.
	found := map[string]bool{}
	for _, v := range env.Views {
		found[v] = true
	}
	if !found["mv_cust_li_ord_part_ps_supp"] || !found["mv_cust_ord"] {
		t.Fatalf("expected canonical view names, got %v", env.Views)
	}
	// A query over customer ⋈ orders must be answerable (and agree) with
	// views on.
	res, err := env.Eng.Exec("SELECT * FROM customer, orders WHERE customer.c_custkey = orders.o_custkey")
	if err != nil {
		t.Fatal(err)
	}
	ordT, _ := env.Eng.Catalog.Table("orders")
	if res.RowCount != ordT.RowCount() {
		t.Fatalf("view-mode answer %d rows, want %d", res.RowCount, ordT.RowCount())
	}
}

func TestMultiUserReplay(t *testing.T) {
	env := tinyEnv(t, EnvConfig{BufferPoolPages: PoolPages96MB})
	traces := tinyTraces(t, 3)

	normal, err := RunMultiUserNormal(env.Eng, traces)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.SelectionsOnly = true
	cfg.Ledger = core.NewLedger(env.Eng.Metrics(), false)
	spec, err := RunScaledSessions(env.Eng, traces, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The device time a GO waits for is summed in whole nanoseconds, so the
	// ledger's map order cannot move it: a second run agrees exactly.
	again, err := RunScaledSessions(env.Eng, traces, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(spec.Timings, again.Timings) {
		t.Fatal("two runs of the same multi-user replay disagree")
	}
	if len(normal) != len(spec.Timings) {
		t.Fatalf("normal %d vs spec %d timings", len(normal), len(spec.Timings))
	}
	// Row counts agree per (user, query).
	paired, err := alignTimings(normal, spec.Timings)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range normal {
		if s := paired[i]; s.Rows != n.Rows {
			t.Fatalf("user %d query %d: rows %d vs %d", n.TraceIdx, n.QueryIdx, n.Rows, s.Rows)
		}
	}
	if n := cfg.Ledger.InFlight(core.AssetKey{}); n != 0 || cfg.Ledger.Len() != 0 {
		t.Fatalf("ledger not emptied: %d in flight, %d entries", n, cfg.Ledger.Len())
	}
}

func TestRunTraceSpeculativeStats(t *testing.T) {
	env := tinyEnv(t, EnvConfig{})
	traces := tinyTraces(t, 1)
	so, err := RunTraceSpeculative(env.Eng, 0, traces[0], core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	st := so.Stats
	if st.Issued < st.Completed {
		t.Fatalf("impossible stats %+v", st)
	}
	if pending := st.Issued - st.Terminals(); pending < 0 || pending > 1 {
		// One job may still be pending at the end of the trace; Shutdown ends it.
		t.Fatalf("issue accounting broken: %+v", st)
	}
	if fs := so.FinalStats; fs.Issued != fs.Terminals() {
		t.Fatalf("issued %d != terminal %d after Shutdown: %+v", fs.Issued, fs.Terminals(), fs)
	}
}

// TestRunBench runs the spec-on vs spec-off benchmark on a shortened
// single-user corpus and validates the report's internal consistency — the
// same checks a consumer of BENCH_spec.json would apply.
func TestRunBench(t *testing.T) {
	if testing.Short() {
		t.Skip("loads a full named scale")
	}
	res, err := RunBench("100MB", tinyTraces(t, 1), 42)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scale != "100MB" || res.Queries == 0 {
		t.Fatalf("result header: %+v", res)
	}
	if res.SpecOffTotalS <= 0 || res.SpecOnTotalS <= 0 {
		t.Fatalf("non-positive totals: off=%v on=%v", res.SpecOffTotalS, res.SpecOnTotalS)
	}
	if got, want := res.RelativeResponseTime, res.SpecOnTotalS/res.SpecOffTotalS; !closeEnough(got, want) {
		t.Fatalf("relative response time %v, want %v", got, want)
	}
	if got, want := res.ImprovementPct, 100*(1-res.RelativeResponseTime); !closeEnough(got, want) {
		t.Fatalf("improvement %v, want %v", got, want)
	}
	if res.HitRate < 0 || res.HitRate > 1 {
		t.Fatalf("hit rate %v", res.HitRate)
	}
	if res.WasteS < 0 {
		t.Fatalf("negative waste %v", res.WasteS)
	}
	reported := core.Stats{Completed: res.Completed, CanceledInvalidated: res.CanceledInvalidated, CanceledAtGo: res.CanceledAtGo}
	if res.Issued != reported.Terminals() {
		t.Fatalf("issued %d != terminal states %d", res.Issued, reported.Terminals())
	}
	if res.PredictEquivFailures != 0 {
		t.Fatalf("%d prediction-replay answers differ from the speculation-off replay", res.PredictEquivFailures)
	}
}

// TestPredictBenchOracle: EquivFailures is a comparison that can fail. Against
// an oracle with one answer altered and one missing, the prediction replay
// reports exactly those two.
func TestPredictBenchOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("loads a full named scale")
	}
	traces := tinyTraces(t, 1)
	env, err := NewEnv(EnvConfig{Scale: tpch.Scale100MB, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := RunTraceNormal(env.Eng, 0, traces[0])
	if err != nil {
		t.Fatal(err)
	}
	oracle[0].RowsKey++
	po, err := RunPredictBench("100MB", traces, 42, oracle[:len(oracle)-1])
	if err != nil {
		t.Fatal(err)
	}
	if po.EquivFailures != 2 || po.ReplayQueries != len(oracle) {
		t.Fatalf("%d equivalence failures over %d replay queries, want 2 over %d", po.EquivFailures, po.ReplayQueries, len(oracle))
	}
}

func closeEnough(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}

// TestSumStatsAllCoversEveryField: a numeric field added to core.Stats later
// must not silently drop out of the complete aggregates. Every field is set to
// a distinct non-zero value by reflection; two such stats must sum field-wise.
func TestSumStatsAllCoversEveryField(t *testing.T) {
	var one core.Stats
	v := reflect.ValueOf(&one).Elem()
	for i := 0; i < v.NumField(); i++ {
		if !v.Field(i).CanInt() {
			t.Fatalf("core.Stats.%s is not an integer: teach SumStatsAll and this test about it", v.Type().Field(i).Name)
		}
		v.Field(i).SetInt(int64(i + 1))
	}
	sum := reflect.ValueOf(SumStatsAll([]core.Stats{one, one}))
	for i := 0; i < v.NumField(); i++ {
		if got, want := sum.Field(i).Int(), 2*int64(i+1); got != want {
			t.Errorf("SumStatsAll drops or mangles core.Stats.%s: got %d, want %d", v.Type().Field(i).Name, got, want)
		}
	}
}
