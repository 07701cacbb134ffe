package stats

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"specdb/internal/sim"
	"specdb/internal/tuple"
)

// buildHistogramReference is BuildHistogram as it was before it sorted key
// images: the values as floats through sort.Float64s, then the same buckets.
func buildHistogramReference(values []tuple.Value, numBuckets int) *Histogram {
	xs := make([]float64, 0, len(values))
	for _, v := range values {
		xs = append(xs, v.AsFloat())
	}
	sort.Float64s(xs)
	h := &Histogram{Total: int64(len(xs))}
	if len(xs) == 0 {
		return h
	}
	depth := (len(xs) + numBuckets - 1) / numBuckets
	for start := 0; start < len(xs); {
		end := start + depth
		if end > len(xs) {
			end = len(xs)
		}
		for end < len(xs) && xs[end] == xs[end-1] {
			end++
		}
		b := Bucket{Lo: xs[start], Hi: xs[end-1], Count: int64(end - start)}
		d := int64(1)
		for i := start + 1; i < end; i++ {
			if xs[i] != xs[i-1] {
				d++
			}
		}
		b.Distinct = d
		h.Buckets = append(h.Buckets, b)
		start = end
	}
	return h
}

// histogramEdgeColumns are columns on the values a key image sorts unusually:
// the zero image (MinInt64), both zeros, both infinities, NaNs, duplicates,
// one repeated value, ascending and reversed runs, mixed kinds.
func histogramEdgeColumns() map[string][]tuple.Value {
	f, i := tuple.NewFloat, tuple.NewInt
	negZero := math.Copysign(0, -1)
	edges := []tuple.Value{i(math.MinInt64), i(-1), i(0), i(math.MaxInt64), f(math.Inf(1)), f(math.Inf(-1)),
		f(math.SmallestNonzeroFloat64), f(-math.SmallestNonzeroFloat64), f(-1.5), f(1e300), tuple.NewDate(19000)}
	r := sim.NewRand(5)
	var zipf, same, asc, desc, random []tuple.Value
	for k := range 500 {
		zipf = append(zipf, i(int64(1/(r.Float64()+0.02))))
		same = append(same, f(2.5))
		asc = append(asc, f(float64(k)/4))
		desc = append(desc, i(int64(1000-k/3)))
		random = append(random, f(r.NormFloat64()*1e6))
	}
	cols := map[string][]tuple.Value{
		"edges": edges, "edges twice": slices.Concat(edges, edges),
		"zipf": zipf, "same": same, "ascending": asc, "descending": desc, "random": random,
		"one": {f(-7)}, "zeros": {f(0), i(0), f(0)},
		// sort.Float64s leaves these to its algorithm; BuildHistogram falls back.
		"signed zeros": {f(negZero), f(0), f(negZero), f(1), f(0), f(-1)},
		"nan":          slices.Concat(zipf[:50], []tuple.Value{f(math.NaN()), f(-math.NaN()), f(math.NaN())}, edges),
	}
	return cols
}

// TestBuildHistogramMatchesReference holds BuildHistogram to the sort.Float64s
// builder bit for bit — bounds as IEEE bits, counts and distinct counts —
// on every edge column and bucket count.
func TestBuildHistogramMatchesReference(t *testing.T) {
	for name, vals := range histogramEdgeColumns() {
		for _, buckets := range []int{1, 3, 20, 1000} {
			got, err := BuildHistogram(vals, buckets)
			if err != nil {
				t.Fatal(err)
			}
			want := buildHistogramReference(vals, buckets)
			if g, w := histogramBits(got), histogramBits(want); g != w {
				t.Fatalf("%s, %d buckets:\n got %s\nwant %s", name, buckets, g, w)
			}
		}
	}
}

func histogramBits(h *Histogram) string {
	s := fmt.Sprintf("total=%d", h.Total)
	for _, b := range h.Buckets {
		s += fmt.Sprintf(" [%016x %016x %d %d]", math.Float64bits(b.Lo), math.Float64bits(b.Hi), b.Count, b.Distinct)
	}
	return s
}
