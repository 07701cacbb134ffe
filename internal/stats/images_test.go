package stats

import (
	"math"
	"testing"

	"specdb/internal/sim"
	"specdb/internal/tuple"
)

// imageColumns are one-kind numeric columns whose images sort unusually: -0
// and +0 in both orders (equal to Compare, distinct images), NaNs (equal to
// everything under Compare), both infinities, and ints next to ±2⁵³, where a
// float64 can no longer tell neighbours apart.
func imageColumns() map[string][]tuple.Value {
	f, i := tuple.NewFloat, tuple.NewInt
	negZero := math.Copysign(0, -1)
	cols := map[string][]tuple.Value{
		"+0 then -0":   {f(1), f(0), f(negZero), f(2)},
		"-0 then +0":   {f(1), f(negZero), f(0), f(2)},
		"only zeros":   {f(negZero), f(0), f(negZero)},
		"-0 at bottom": {f(negZero), f(3), f(0)},
		"nan":          {f(2), f(math.NaN()), f(-1), f(-math.NaN()), f(5)},
		"nan first":    {f(math.NaN()), f(4), f(-3)},
		"infinities":   {f(math.Inf(1)), f(-2), f(math.Inf(-1)), f(math.Inf(1)), f(7)},
		"ints at 2^53": {i(1<<53 + 1), i(1 << 53), i(-(1 << 53) - 1), i(1<<53 - 1), i(-(1 << 53)), i(1 << 53)},
		"int extremes": {i(math.MaxInt64), i(math.MinInt64), i(0), i(-1), i(math.MinInt64)},
		"dates":        {tuple.NewDate(9000), tuple.NewDate(8035), tuple.NewDate(9000), tuple.NewDate(-1)},
		"empty":        {},
	}
	for _, g := range valueGens {
		k := g.draw(sim.NewRand(1), 0, 1).Kind()
		if k == tuple.KindString || g.name == "mixed/numeric" {
			continue
		}
		rng := sim.NewRand(11)
		vals := make([]tuple.Value, 700)
		for j := range vals {
			vals[j] = g.draw(rng, j, len(vals))
		}
		cols[g.name] = vals
	}
	return cols
}

// TestImagesMatchCollector holds what a sorted column of key images gives —
// its statistics and its histogram — to a Collector of the column's kind and
// to the buffered reference, bounds bit for bit, and to the sort.Float64s
// histogram; and its sort to a stable order with every riding word still
// beside its image.
func TestImagesMatchCollector(t *testing.T) {
	for name, vals := range imageColumns() {
		k := tuple.KindInt
		if len(vals) > 0 {
			k = vals[0].Kind()
		}
		c := NewImages(k, len(vals), true)
		for j, v := range vals {
			c.Add(v, uint64(j))
		}
		col := ColumnCollectors(tuple.NewSchema(tuple.Column{Name: "c", Kind: k}))[0]
		for _, v := range vals {
			col.Add(v)
		}
		got, want := SummaryOf(c.Stats()), SummaryOf(col.Stats())
		col.Release()
		if !want.Same(got) {
			t.Errorf("%s: statistics %+v, a collector says %+v", name, got, want)
		}
		if ref := SummaryOf(referenceColumnStats(vals)); !ref.Same(got) {
			t.Errorf("%s: statistics %+v, the reference says %+v", name, got, ref)
		}
		for _, buckets := range []int{1, 3, 20} {
			h, err := c.Histogram(buckets)
			if err != nil {
				t.Fatal(err)
			}
			if g, w := histogramBits(h), histogramBits(buildHistogramReference(vals, buckets)); g != w {
				t.Errorf("%s, %d buckets:\n got %s\nwant %s", name, buckets, g, w)
			}
		}
		keys, rows := c.Sorted()
		for j := range keys {
			if keys[j] != tuple.KeyBitsOf(k, vals[rows[j]]) {
				t.Fatalf("%s: image %d is %016x, but the row beside it holds %v", name, j, keys[j], vals[rows[j]])
			}
			if j > 0 && (keys[j-1] > keys[j] || keys[j-1] == keys[j] && rows[j-1] > rows[j]) {
				t.Fatalf("%s: images %d and %d out of (image, arrival) order", name, j-1, j)
			}
		}
		c.Release()
	}
}
