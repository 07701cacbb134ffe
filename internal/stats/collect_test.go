package stats

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"specdb/internal/sim"
	"specdb/internal/tuple"
)

// referenceColumnStats is CollectColumnStats as it stood before the streaming
// Collector, kept verbatim: buffer the column, key a map by the EncodeKey
// bytes, Compare every value against both bounds. It is what "exact" means.
func referenceColumnStats(values []tuple.Value) *ColumnStats {
	cs := &ColumnStats{Count: int64(len(values))}
	if len(values) == 0 {
		return cs
	}
	distinct := make(map[string]struct{}, len(values))
	var keyBuf []byte
	cs.Min, cs.Max = values[0], values[0]
	for _, v := range values {
		keyBuf = tuple.EncodeKey(keyBuf[:0], v)
		distinct[string(keyBuf)] = struct{}{}
		if v.Compare(cs.Min) < 0 {
			cs.Min = v
		}
		if v.Compare(cs.Max) > 0 {
			cs.Max = v
		}
	}
	cs.Distinct = int64(len(distinct))
	cs.HasRange = true
	return cs
}

func requireExact(t *testing.T, name string, values []tuple.Value) {
	t.Helper()
	want, got := SummaryOf(referenceColumnStats(values)), SummaryOf(CollectColumnStats(values))
	if !want.Same(got) {
		t.Fatalf("%s (%d values): want %+v, got %+v", name, len(values), want, got)
	}
	// A column's collector, which takes the kind from the schema instead of
	// from each value, when the values share one.
	if len(values) == 0 || slices.ContainsFunc(values, func(v tuple.Value) bool { return v.Kind() != values[0].Kind() }) {
		return
	}
	c := ColumnCollectors(tuple.NewSchema(tuple.Column{Name: "c", Kind: values[0].Kind()}))[0]
	for _, v := range values {
		c.Add(v)
	}
	got = SummaryOf(c.Stats())
	c.Release()
	if !want.Same(got) {
		t.Fatalf("%s (%d values), column collector: want %+v, got %+v", name, len(values), want, got)
	}
}

// A value generator draws the i-th value of an n-value column.
type valueGen struct {
	name string
	draw func(rng *sim.Rand, i, n int) tuple.Value
}

var (
	intEdges = []int64{
		math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1, 0, -1, 1,
		1 << 53, 1<<53 + 1, 1<<53 + 2, 1<<53 - 1, -(1 << 53), -(1 << 53) - 1, -(1 << 53) - 2, -(1 << 53) + 1,
		1<<62 + 1, 1<<62 + 2, 1<<62 + 3,
	}
	floatEdges = []float64{
		0, math.Copysign(0, -1), 1, -1, -1.5, 2.5, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		5e-324 * 3, 2.2250738585072014e-308, math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1),
		math.NaN(), math.Float64frombits(0xFFFFFFFFFFFFFFFF), // the NaN whose key image is all zero
	}
	stringEdges = []string{"", "a", "ab", "abc", "abd", "b", "\x00", "\x00\x00", "abcdefgh", "abcdefghi", "é", "zz"}
)

func pick[T any](rng *sim.Rand, xs []T) T { return xs[rng.Intn(len(xs))] }

var valueGens = []valueGen{
	{"int/all-equal", func(*sim.Rand, int, int) tuple.Value { return tuple.NewInt(42) }},
	{"int/all-distinct", func(_ *sim.Rand, i, _ int) tuple.Value { return tuple.NewInt(int64(i) - 7) }},
	{"int/descending", func(_ *sim.Rand, i, n int) tuple.Value { return tuple.NewInt(int64(n - i)) }},
	{"int/few", func(rng *sim.Rand, _, _ int) tuple.Value { return tuple.NewInt(int64(rng.Intn(25))) }},
	{"int/random", func(rng *sim.Rand, _, _ int) tuple.Value { return tuple.NewInt(int64(rng.Uint64())) }},
	{"int/edges", func(rng *sim.Rand, _, _ int) tuple.Value { return tuple.NewInt(pick(rng, intEdges)) }},
	{"int/around-2^53", func(rng *sim.Rand, _, _ int) tuple.Value {
		v := int64(1)<<53 + int64(rng.Intn(9)) - 4
		if rng.Intn(2) == 0 {
			v = -v
		}
		return tuple.NewInt(v)
	}},
	{"int/stride-2^32", func(_ *sim.Rand, i, _ int) tuple.Value { return tuple.NewInt(int64(i) << 32) }},
	{"date/random", func(rng *sim.Rand, _, _ int) tuple.Value { return tuple.NewDate(int64(rng.Intn(2500)) + 8000) }},
	{"date/edges", func(rng *sim.Rand, _, _ int) tuple.Value { return tuple.NewDate(pick(rng, intEdges)) }},
	{"float/all-equal", func(*sim.Rand, int, int) tuple.Value { return tuple.NewFloat(-0.25) }},
	{"float/all-distinct", func(_ *sim.Rand, i, _ int) tuple.Value { return tuple.NewFloat(float64(i)/8 - 100) }},
	{"float/random", func(rng *sim.Rand, _, _ int) tuple.Value { return tuple.NewFloat(rng.Float64()*2e6 - 1e6) }},
	{"float/edges", func(rng *sim.Rand, _, _ int) tuple.Value { return tuple.NewFloat(pick(rng, floatEdges)) }},
	{"float/zeros", func(rng *sim.Rand, _, _ int) tuple.Value {
		return tuple.NewFloat(math.Copysign(0, float64(rng.Intn(2))-0.5))
	}},
	{"float/denormals", func(rng *sim.Rand, _, _ int) tuple.Value {
		return tuple.NewFloat(math.Float64frombits(uint64(rng.Intn(64)) | uint64(rng.Intn(2))<<63))
	}},
	{"float/any-bits", func(rng *sim.Rand, _, _ int) tuple.Value {
		return tuple.NewFloat(math.Float64frombits(rng.Uint64()))
	}},
	{"string/all-equal", func(*sim.Rand, int, int) tuple.Value { return tuple.NewString("same") }},
	{"string/all-distinct", func(_ *sim.Rand, i, _ int) tuple.Value { return tuple.NewString(fmt.Sprintf("k%07d", i)) }},
	{"string/edges", func(rng *sim.Rand, _, _ int) tuple.Value { return tuple.NewString(pick(rng, stringEdges)) }},
	{"string/prefixes", func(rng *sim.Rand, _, _ int) tuple.Value {
		return tuple.NewString("abcabcabcabc"[:rng.Intn(13)])
	}},
	// One column mixing the numeric kinds: Compare orders them together and
	// the key image does not know the kind, at the parent as here.
	{"mixed/numeric", func(rng *sim.Rand, _, _ int) tuple.Value {
		switch x := int64(rng.Intn(7)) - 3; rng.Intn(3) {
		case 0:
			return tuple.NewInt(x)
		case 1:
			return tuple.NewDate(x)
		default:
			return tuple.NewFloat(float64(x) / 2)
		}
	}},
}

// TestCollectorMatchesReference is the tentpole's contract: the streaming
// collector returns, field for field and with no tolerance, what buffering the
// column and summarizing it returned. Sizes cross every growth step of the
// image set (it starts at 64 slots and doubles when half full).
func TestCollectorMatchesReference(t *testing.T) {
	sizes := []int{0, 1, 2, 3, 31, 32, 33, 63, 64, 65, 127, 128, 129, 1000, 100000}
	if testing.Short() {
		sizes = sizes[:len(sizes)-1]
	}
	for _, g := range valueGens {
		for _, n := range sizes {
			seeds := uint64(3)
			if n > 1000 {
				seeds = 1 // the large column is there for the growth steps, not for variety
			}
			for seed := uint64(1); seed <= seeds; seed++ {
				rng := sim.NewRand(seed*1000003 + uint64(n))
				values := make([]tuple.Value, n)
				for i := range values {
					values[i] = g.draw(rng, i, n)
				}
				requireExact(t, fmt.Sprintf("%s seed %d", g.name, seed), values)
			}
		}
	}
}

// TestCollectorFirstSeenAmongCompareEquals spells the case where the key
// image tells apart values that Compare calls equal, +0.0 and -0.0: the bounds
// keep the first seen, the distinct count counts both. Neighbouring ints
// beyond 2^53 were the other such case while Compare went through float64;
// they are ordered now, and the bounds are the true ones.
func TestCollectorFirstSeenAmongCompareEquals(t *testing.T) {
	big := int64(1) << 53
	negZero := math.Copysign(0, -1)
	for _, c := range []struct {
		values   []tuple.Value
		min, max tuple.Value
	}{
		{intVals(big, big+1), tuple.NewInt(big), tuple.NewInt(big + 1)},
		{intVals(big+1, big), tuple.NewInt(big), tuple.NewInt(big + 1)},
		{intVals(-big-1, -big, -big-1), tuple.NewInt(-big - 1), tuple.NewInt(-big)},
		{[]tuple.Value{tuple.NewFloat(0), tuple.NewFloat(negZero)}, tuple.NewFloat(0), tuple.NewFloat(0)},
		{[]tuple.Value{tuple.NewFloat(negZero), tuple.NewFloat(0)}, tuple.NewFloat(negZero), tuple.NewFloat(negZero)},
	} {
		requireExact(t, "compare-equals", c.values)
		cs := CollectColumnStats(c.values)
		if cs.Distinct != 2 || !identical(cs.Min, c.min) || !identical(cs.Max, c.max) {
			t.Fatalf("%v: distinct %d, bounds [%v, %v]; want 2 and [%v, %v]", c.values, cs.Distinct, cs.Min, cs.Max, c.min, c.max)
		}
	}
}

// TestCollectorZeroImage: the set's empty-slot marker is the zero word, and
// zero is also the key image of math.MinInt64.
func TestCollectorZeroImage(t *testing.T) {
	if tuple.KeyBitsOf(tuple.KindInt, tuple.NewInt(math.MinInt64)) != 0 {
		t.Fatal("MinInt64 no longer has the all-zero key image; pick the value that does")
	}
	for _, values := range [][]tuple.Value{
		intVals(math.MinInt64),
		intVals(math.MinInt64, math.MinInt64),
		intVals(5, math.MinInt64, 5, math.MinInt64, 6),
	} {
		requireExact(t, "zero image", values)
	}
	if d := CollectColumnStats(intVals(math.MinInt64, math.MinInt64, 1)).Distinct; d != 2 {
		t.Fatalf("distinct = %d, want 2", d)
	}
}

// TestCollectorAllocatesPerDoublingNotPerValue: adding n values of a numeric
// column allocates a bounded number of times per doubling of the image set,
// never per value — the buffered column and the per-value string key this
// replaced were O(n) each. This is the cold bound, for a slab that holds
// nothing (or, under -race, drops what it is given): a doubling then makes
// its new table and the box the outgrown one goes back to the slab in.
// TestWarmCollectorAllocatesNothing is the warm bound.
func TestCollectorAllocatesPerDoublingNotPerValue(t *testing.T) {
	for _, n := range []int{1000, 100000} {
		values := make([]tuple.Value, n)
		for i := range values {
			values[i] = tuple.NewInt(int64(i) * 7919)
		}
		allocs := testing.AllocsPerRun(3, func() {
			var c Collector
			for _, v := range values {
				c.Add(v)
			}
			if c.bits.len() != n {
				t.Fatalf("distinct = %d, want %d", c.bits.len(), n)
			}
		})
		// Tables of 64, 128, … slots up to the first with 2n or more.
		doublings := math.Ceil(math.Log2(float64(2*n)/bitsSetMinSlots)) + 1
		if allocs > 2*doublings {
			t.Fatalf("%d values: %.0f allocations, want at most %.0f (a table and a box per doubling)", n, allocs, 2*doublings)
		}
	}
}

// TestCollectorOnRecycledTables is the stale-memory check: collectors run
// back to back on one P with the collector off, so each takes the tables the
// one before it released, which still hold that one's images at their hashed
// slots. The columns are drawn from the edge values — neighbours of ±2^53,
// MinInt64 (the zero image), -0.0 and +0.0, NaN, "", date 0 — so consecutive
// columns share most images, and a table not cleared on reuse reports them
// present and undercounts Distinct.
func TestCollectorOnRecycledTables(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var gens []valueGen
	for _, g := range valueGens {
		if strings.Contains(g.name, "edges") || strings.Contains(g.name, "2^53") || g.name == "float/zeros" || g.name == "mixed/numeric" {
			gens = append(gens, g)
		}
	}
	for seed := uint64(1); seed <= 20; seed++ {
		for _, g := range gens {
			for _, n := range []int{1, 40, 200, 3000} {
				rng := sim.NewRand(seed*7919 + uint64(n))
				values := make([]tuple.Value, n)
				for i := range values {
					values[i] = g.draw(rng, i, n)
				}
				var c Collector
				for _, v := range values {
					c.Add(v)
				}
				got := SummaryOf(c.Stats())
				c.Release()
				if want := SummaryOf(referenceColumnStats(values)); !want.Same(got) {
					t.Fatalf("%s seed %d, %d values, on recycled tables: want %+v, got %+v", g.name, seed, n, want, got)
				}
			}
		}
	}
}

// TestWarmCollectorAllocatesNothing: once a collector has released its
// tables, the next one over a column of the same size, numeric or string,
// takes every table it grows through from the slab, so its Adds allocate
// nothing.
func TestWarmCollectorAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))  // the slabs are per P
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection empties them
	for _, n := range []int{1000, 100000} {
		values := make([]tuple.Value, n)
		for i := range values {
			values[i] = tuple.NewFloat(float64(i) * 0.37)
		}
		allocs := testing.AllocsPerRun(5, func() {
			var c Collector
			for _, v := range values {
				c.Add(v)
			}
			if c.bits.len() != n {
				t.Fatalf("distinct = %d, want %d", c.bits.len(), n)
			}
			c.Release()
		})
		if allocs != 0 {
			t.Fatalf("%d values on a warm slab: %.1f allocations, want 0", n, allocs)
		}
		strs := make([]tuple.Value, n)
		for i := range strs {
			strs[i] = tuple.NewString(fmt.Sprintf("k%07d", i))
		}
		allocs = testing.AllocsPerRun(5, func() {
			var c Collector
			for _, v := range strs {
				c.Add(v)
			}
			if c.strs.len() != n {
				t.Fatalf("distinct = %d, want %d", c.strs.len(), n)
			}
			c.Release()
		})
		if allocs != 0 {
			t.Fatalf("%d strings on a warm slab: %.1f allocations, want 0", n, allocs)
		}
	}
}

func BenchmarkCollectorAdd(b *testing.B) {
	rng := sim.NewRand(1)
	values := make([]tuple.Value, 40000)
	for i := range values {
		values[i] = tuple.NewInt(int64(rng.Intn(10000)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var c Collector
		for _, v := range values {
			c.Add(v)
		}
		if c.Stats().Count != int64(len(values)) {
			b.Fatal("count")
		}
		c.Release()
	}
}
