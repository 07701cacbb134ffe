package stats

import (
	"fmt"
	"math"
	"sort"

	"specdb/internal/radix"
	"specdb/internal/slab"
	"specdb/internal/tuple"
)

// Images is one numeric column's key images — tuple.KeyBitsOf under the
// column's kind — in the order they were added, each with a word riding beside
// it: the row's RID for an index build, or nothing. One radix sort of the
// images gives the column's statistics, its histogram and, through the
// riding words, its index order (DESIGN.md §15, "What a set-up costs").
//
// Two floats that compare equal have equal images except for -0 and +0, and a
// NaN compares equal to everything; the first-seen bound a Collector keeps and
// the order sort.Float64s leaves are then not what the sorted images say. So a
// float column holding a NaN or a -0 keeps its images in arrival order too,
// and its statistics come from a Collector and its histogram from
// sort.Float64s, fed in that order.
//
// The slices come from slab.Uint64s and go back at Release.
type Images struct {
	kind   tuple.Kind
	keys   []uint64 // ascending once sorted
	vals   []uint64 // beside keys; nil when nothing rides
	heap   []uint64 // keys in arrival order, kept only for a NaN or a -0
	sorted bool
}

// NewImages returns an empty column of kind k with room for n images, with a
// word riding beside each when carry is set.
func NewImages(k tuple.Kind, n int, carry bool) Images {
	c := Images{kind: k, keys: slab.Uint64s.Take(max(n, 1))[:0]}
	if carry {
		c.vals = slab.Uint64s.Take(max(n, 1))[:0]
	}
	return c
}

// Add appends v, of the column's kind, with val riding beside it (ignored
// when nothing rides).
func (c *Images) Add(v tuple.Value, val uint64) {
	c.keys = append(c.keys, tuple.KeyBitsOf(c.kind, v))
	if c.vals != nil {
		c.vals = append(c.vals, val)
	}
}

// sortOnce orders the images ascending, moving the riding words with them;
// equal images keep their arrival order. It sorts the first time only, and
// nothing may be added after.
func (c *Images) sortOnce() {
	if c.sorted {
		return
	}
	c.sorted = true
	if c.kind == tuple.KindFloat {
		for _, u := range c.keys {
			if x := tuple.FloatOfKeyBits(u); x != x || x == 0 && math.Signbit(x) {
				c.heap = append(slab.Uint64s.Take(len(c.keys))[:0], c.keys...)
				break
			}
		}
	}
	radix.Sort(c.keys, c.vals)
}

// Sorted sorts the column and returns its images and riding words, which
// stay the column's: read them before Release.
func (c *Images) Sorted() (keys, vals []uint64) {
	c.sortOnce()
	return c.keys, c.vals
}

// Stats returns the column's Count, Distinct, Min and Max, exactly those a
// Collector of the column's kind fed the same values would return.
func (c *Images) Stats() *ColumnStats {
	c.sortOnce()
	if c.heap != nil {
		col := Collector{kind: c.kind}
		for _, u := range c.heap {
			col.Add(tuple.ValueOfKeyBits(c.kind, u))
		}
		defer col.Release()
		return col.Stats()
	}
	cs := &ColumnStats{Count: int64(len(c.keys))}
	if len(c.keys) == 0 {
		return cs
	}
	cs.Distinct = 1
	for i := 1; i < len(c.keys); i++ {
		if c.keys[i] != c.keys[i-1] {
			cs.Distinct++
		}
	}
	cs.HasRange = true
	cs.Min = tuple.ValueOfKeyBits(c.kind, c.keys[0])
	cs.Max = tuple.ValueOfKeyBits(c.kind, c.keys[len(c.keys)-1])
	return cs
}

// Histogram returns an equi-depth histogram of at most numBuckets buckets over
// the column's values as floats.
func (c *Images) Histogram(numBuckets int) (*Histogram, error) {
	if numBuckets <= 0 {
		return nil, fmt.Errorf("stats: numBuckets must be positive, got %d", numBuckets)
	}
	c.sortOnce()
	h := &Histogram{Total: int64(len(c.keys))}
	if len(c.keys) == 0 {
		return h, nil
	}
	if c.heap != nil {
		xs := make([]float64, len(c.heap))
		for i, u := range c.heap {
			xs[i] = tuple.FloatOfKeyBits(u)
		}
		sort.Float64s(xs)
		h.Buckets = equiDepth(len(xs), numBuckets, func(i int) float64 { return xs[i] })
		return h, nil
	}
	h.Buckets = equiDepth(len(c.keys), numBuckets, func(i int) float64 {
		return tuple.ValueOfKeyBits(c.kind, c.keys[i]).AsFloat()
	})
	return h, nil
}

// Release gives the column's slices back; nothing read from Sorted may be
// used afterwards.
func (c *Images) Release() {
	slab.Uint64s.Give(c.keys)
	slab.Uint64s.Give(c.vals)
	slab.Uint64s.Give(c.heap)
	*c = Images{kind: c.kind}
}
