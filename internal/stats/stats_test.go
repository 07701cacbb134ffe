package stats

import (
	"math"
	"testing"
	"testing/quick"

	"specdb/internal/sim"
	"specdb/internal/tuple"
)

func intVals(xs ...int64) []tuple.Value {
	out := make([]tuple.Value, len(xs))
	for i, x := range xs {
		out[i] = tuple.NewInt(x)
	}
	return out
}

func TestCollectColumnStats(t *testing.T) {
	cs := CollectColumnStats(intVals(5, 1, 3, 3, 9, 1))
	if cs.Count != 6 || cs.Distinct != 4 {
		t.Fatalf("count=%d distinct=%d", cs.Count, cs.Distinct)
	}
	if !cs.HasRange || cs.Min.Int() != 1 || cs.Max.Int() != 9 {
		t.Fatalf("range [%v, %v]", cs.Min, cs.Max)
	}
}

func TestCollectColumnStatsEmpty(t *testing.T) {
	cs := CollectColumnStats(nil)
	if cs.Count != 0 || cs.HasRange {
		t.Fatalf("empty stats: %+v", cs)
	}
	// Falls back to defaults.
	if got := cs.EstimateSelectivity(tuple.CmpEQ, tuple.NewInt(1)); got != DefaultEqSelectivity {
		t.Fatalf("empty eq selectivity = %v", got)
	}
}

func TestSelectivityWithoutHistogram(t *testing.T) {
	// 100 values 0..99: uniform interpolation should be accurate.
	vals := make([]tuple.Value, 100)
	for i := range vals {
		vals[i] = tuple.NewInt(int64(i))
	}
	cs := CollectColumnStats(vals)
	if got := cs.EstimateSelectivity(tuple.CmpEQ, tuple.NewInt(5)); math.Abs(got-0.01) > 1e-9 {
		t.Fatalf("eq selectivity = %v, want 0.01", got)
	}
	got := cs.EstimateSelectivity(tuple.CmpLT, tuple.NewInt(25))
	if math.Abs(got-25.0/99) > 0.01 {
		t.Fatalf("lt selectivity = %v, want ≈0.25", got)
	}
	got = cs.EstimateSelectivity(tuple.CmpGE, tuple.NewInt(75))
	if math.Abs(got-(1-75.0/99)) > 0.01 {
		t.Fatalf("ge selectivity = %v, want ≈0.24", got)
	}
	// Out-of-range constants clamp.
	if got := cs.EstimateSelectivity(tuple.CmpLT, tuple.NewInt(-5)); got != 0 {
		t.Fatalf("below-min lt = %v, want 0", got)
	}
	if got := cs.EstimateSelectivity(tuple.CmpGT, tuple.NewInt(200)); got != 0 {
		t.Fatalf("above-max gt = %v, want 0", got)
	}
}

func TestStringSelectivity(t *testing.T) {
	cs := CollectColumnStats([]tuple.Value{
		tuple.NewString("a"), tuple.NewString("b"), tuple.NewString("b"), tuple.NewString("c"),
	})
	if got := cs.EstimateSelectivity(tuple.CmpEQ, tuple.NewString("b")); math.Abs(got-1.0/3) > 1e-9 {
		t.Fatalf("string eq = %v, want 1/3", got)
	}
	if got := cs.EstimateSelectivity(tuple.CmpLT, tuple.NewString("b")); got != DefaultRangeSelectivity {
		t.Fatalf("string range = %v, want default", got)
	}
}

func TestBuildHistogramEquiDepth(t *testing.T) {
	vals := make([]tuple.Value, 1000)
	for i := range vals {
		vals[i] = tuple.NewInt(int64(i))
	}
	h, err := BuildHistogram(vals, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Buckets) != 10 {
		t.Fatalf("buckets = %d, want 10", len(h.Buckets))
	}
	for i, b := range h.Buckets {
		if b.Count != 100 {
			t.Fatalf("bucket %d depth %d, want 100", i, b.Count)
		}
	}
	if h.Total != 1000 {
		t.Fatalf("total = %d", h.Total)
	}
}

func TestHistogramRejectsNonNumeric(t *testing.T) {
	if _, err := BuildHistogram([]tuple.Value{tuple.NewString("x")}, 4); err == nil {
		t.Fatal("non-numeric histogram should fail")
	}
	if _, err := BuildHistogram(intVals(1), 0); err == nil {
		t.Fatal("zero buckets should fail")
	}
}

func TestHistogramEmpty(t *testing.T) {
	h, err := BuildHistogram(nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Selectivity(tuple.CmpEQ, 5); got != DefaultEqSelectivity {
		t.Fatalf("empty histogram eq = %v", got)
	}
}

func TestHistogramSkewedBeatsUniform(t *testing.T) {
	// 90% of mass at value 0, the rest spread over 1..1000. A histogram must
	// estimate eq(0) ≈ 0.9 where uniform interpolation cannot.
	var vals []tuple.Value
	for i := 0; i < 900; i++ {
		vals = append(vals, tuple.NewInt(0))
	}
	for i := 1; i <= 100; i++ {
		vals = append(vals, tuple.NewInt(int64(i*10)))
	}
	h, err := BuildHistogram(vals, 10)
	if err != nil {
		t.Fatal(err)
	}
	eq0 := h.Selectivity(tuple.CmpEQ, 0)
	if eq0 < 0.5 {
		t.Fatalf("histogram eq(0) = %v; skew not captured", eq0)
	}
	gt500 := h.Selectivity(tuple.CmpGT, 500)
	if gt500 > 0.2 {
		t.Fatalf("histogram gt(500) = %v, want small", gt500)
	}
	// The no-histogram path, by contrast, is badly wrong on this data.
	cs := CollectColumnStats(vals)
	cs.SetHist(nil)
	uniform := cs.EstimateSelectivity(tuple.CmpEQ, tuple.NewInt(0))
	if uniform > 0.1 && eq0 < uniform {
		t.Fatalf("expected histogram (%v) to dominate uniform (%v) at the hot value", eq0, uniform)
	}
}

func TestHistogramDuplicatesDontStraddle(t *testing.T) {
	// 50 copies of seven values; bucket boundaries must not split a value.
	var vals []tuple.Value
	for v := 0; v < 7; v++ {
		for i := 0; i < 50; i++ {
			vals = append(vals, tuple.NewInt(int64(v)))
		}
	}
	h, err := BuildHistogram(vals, 4)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 7; v++ {
		got := h.Selectivity(tuple.CmpEQ, float64(v))
		want := 50.0 / 350.0
		if math.Abs(got-want) > 0.03 {
			t.Fatalf("eq(%d) = %v, want ≈%v", v, got, want)
		}
	}
}

// Property: histogram selectivities are valid probabilities, complementary
// ops sum to ~1, and CDF is monotone.
func TestHistogramProperties(t *testing.T) {
	f := func(seed uint64, numBuckets uint8) bool {
		r := sim.NewRand(seed)
		nb := int(numBuckets%20) + 1
		n := 200 + r.Intn(300)
		vals := make([]tuple.Value, n)
		z := sim.NewZipf(r, 50, 1.2)
		for i := range vals {
			vals[i] = tuple.NewInt(int64(z.Next() * 3))
		}
		h, err := BuildHistogram(vals, nb)
		if err != nil {
			return false
		}
		prev := -1.0
		for c := -5.0; c <= 160; c += 5 {
			lt := h.Selectivity(tuple.CmpLT, c)
			gt := h.Selectivity(tuple.CmpGE, c)
			eq := h.Selectivity(tuple.CmpEQ, c)
			ne := h.Selectivity(tuple.CmpNE, c)
			for _, s := range []float64{lt, gt, eq, ne} {
				if s < 0 || s > 1 {
					return false
				}
			}
			if math.Abs(lt+gt-1) > 1e-9 {
				return false
			}
			if math.Abs(eq+ne-1) > 1e-9 {
				return false
			}
			if lt < prev-1e-9 {
				return false // CDF must be monotone
			}
			prev = lt
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: histogram range estimates track the true fraction within a
// tolerance on smooth data.
func TestHistogramAccuracyProperty(t *testing.T) {
	r := sim.NewRand(99)
	n := 5000
	vals := make([]tuple.Value, n)
	raw := make([]float64, n)
	for i := range vals {
		x := r.Float64() * 1000
		raw[i] = x
		vals[i] = tuple.NewFloat(x)
	}
	h, err := BuildHistogram(vals, 20)
	if err != nil {
		t.Fatal(err)
	}
	for c := 50.0; c < 1000; c += 100 {
		truth := 0
		for _, x := range raw {
			if x < c {
				truth++
			}
		}
		want := float64(truth) / float64(n)
		got := h.Selectivity(tuple.CmpLT, c)
		if math.Abs(got-want) > 0.05 {
			t.Fatalf("lt(%v): estimate %v vs truth %v", c, got, want)
		}
	}
}

func TestJoinSelectivity(t *testing.T) {
	l := &ColumnStats{Distinct: 100}
	r := &ColumnStats{Distinct: 40}
	if got := EstimateJoinSelectivity(l, r); math.Abs(got-0.01) > 1e-12 {
		t.Fatalf("join sel = %v, want 0.01", got)
	}
	if got := EstimateJoinSelectivity(nil, nil); got != DefaultEqSelectivity {
		t.Fatalf("nil join sel = %v", got)
	}
	if got := EstimateJoinSelectivity(l, nil); math.Abs(got-0.01) > 1e-12 {
		t.Fatalf("one-sided join sel = %v", got)
	}
}

func TestCmpOpHelpers(t *testing.T) {
	if op, ok := tuple.ParseCmpOp("<="); !ok || op != tuple.CmpLE {
		t.Fatal("ParseCmpOp(<=) failed")
	}
	if _, ok := tuple.ParseCmpOp("LIKE"); ok {
		t.Fatal("ParseCmpOp should reject LIKE")
	}
	if !tuple.CmpNE.Eval(tuple.NewInt(1), tuple.NewInt(2)) {
		t.Fatal("1 <> 2 should hold")
	}
	if tuple.CmpGE.String() != ">=" {
		t.Fatal("String wrong")
	}
}
