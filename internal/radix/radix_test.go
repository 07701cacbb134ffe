package radix

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"specdb/internal/sim"
)

// TestSortIsAStableSort checks Sort against slices.SortStableFunc on keys that
// vary in one byte position (one pass: the result comes back from the
// scratch buffer), in two, in all eight, on duplicates, on already ascending
// and on reversed input, with and without vals.
func TestSortIsAStableSort(t *testing.T) {
	r := sim.NewRand(9)
	gens := []struct {
		name string
		next func(i int) uint64
	}{
		{"byte 3 only", func(int) uint64 { return 0xAB00_0000_0000_0000 | uint64(r.Intn(256))<<24 }},
		{"two bytes", func(int) uint64 { return 1<<63 | uint64(r.Intn(1<<16)) }},
		{"all bytes", func(int) uint64 { return r.Uint64() }},
		{"duplicates", func(int) uint64 { return uint64(r.Intn(4)) << 40 }},
		{"all equal", func(int) uint64 { return 42 }},
		{"ascending", func(i int) uint64 { return uint64(i) * 977 }},
		{"reversed", func(i int) uint64 { return math.MaxUint64 - uint64(i)*977 }},
		{"zero and max", func(i int) uint64 { return uint64(i%2) * math.MaxUint64 }},
	}
	for _, g := range gens {
		name, next := g.name, g.next
		for _, n := range []int{0, 1, 2, 3, 255, 256, 257, 5000} {
			keys := make([]uint64, n)
			vals := make([]uint64, n)
			for i := range keys {
				keys[i], vals[i] = next(i), uint64(i)
			}
			type pair struct{ k, v uint64 }
			want := make([]pair, n)
			for i := range want {
				want[i] = pair{keys[i], vals[i]}
			}
			slices.SortStableFunc(want, func(a, b pair) int { return cmp.Compare(a.k, b.k) })
			bare := slices.Clone(keys)
			Sort(keys, vals)
			Sort(bare, nil)
			for i, w := range want {
				if keys[i] != w.k || vals[i] != w.v || bare[i] != w.k {
					t.Fatalf("%s, n=%d, at %d: (%x, %d), bare %x, want (%x, %d)", name, n, i, keys[i], vals[i], bare[i], w.k, w.v)
				}
			}
		}
	}
}
