// Package stats provides the optimizer's statistics layer: per-column
// statistics, equi-depth histograms, and selectivity estimation for selection
// and join predicates. Column statistics have two producers. A load or an
// ANALYZE sorts each numeric column's key images once (Images, images.go)
// and reads the column's statistics, histogram and index order off them. The
// streaming Collector (collect.go) serves the rest: a materialization feeds
// it the rows it writes, ANALYZE each string column, and Images falls back on
// it for a float column holding a NaN or a -0. Histogram creation is itself
// one of the paper's speculative manipulations (Section 3.2): creating a
// histogram during user think-time sharpens the optimizer's estimates for the
// final query.
package stats

import (
	"fmt"
	"sync"

	"specdb/internal/tuple"
)

// Default selectivities used when no statistics are available — the classic
// System-R magic numbers.
const (
	DefaultEqSelectivity    = 0.10
	DefaultRangeSelectivity = 1.0 / 3.0
	DefaultNeSelectivity    = 0.90
)

// ColumnStats summarizes one column of one relation. Count/Distinct/Min/Max
// are set once at collection time and immutable afterwards; the histogram
// pointer is attached and detached by speculative manipulations, possibly
// from another session, so it sits behind its own lock.
type ColumnStats struct {
	Count    int64 // rows (including the column's duplicates)
	Distinct int64
	// Min/Max are valid when HasRange is true (numeric or string columns
	// with at least one row).
	HasRange bool
	Min, Max tuple.Value

	mu   sync.Mutex
	hist *Histogram
}

// Hist returns the column's histogram, or nil when none has been created.
// Safe on a nil receiver.
func (c *ColumnStats) Hist() *Histogram {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hist
}

// SetHist attaches (or, with nil, detaches) the column's histogram.
func (c *ColumnStats) SetHist(h *Histogram) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hist = h
}

// EstimateSelectivity estimates the fraction of rows satisfying
// "column op constant".
func (c *ColumnStats) EstimateSelectivity(op tuple.CmpOp, constant tuple.Value) float64 {
	if c == nil || c.Count == 0 {
		return defaultSelectivity(op)
	}
	if h := c.Hist(); h != nil && constant.IsNumeric() {
		return h.Selectivity(op, constant.AsFloat())
	}
	switch op {
	case tuple.CmpEQ:
		if c.Distinct > 0 {
			return clamp01(1 / float64(c.Distinct))
		}
		return DefaultEqSelectivity
	case tuple.CmpNE:
		if c.Distinct > 0 {
			return clamp01(1 - 1/float64(c.Distinct))
		}
		return DefaultNeSelectivity
	case tuple.CmpLT, tuple.CmpLE, tuple.CmpGT, tuple.CmpGE:
		if c.HasRange && c.Min.IsNumeric() && constant.IsNumeric() {
			return interpolate(op, c.Min.AsFloat(), c.Max.AsFloat(), constant.AsFloat())
		}
		return DefaultRangeSelectivity
	default:
		return defaultSelectivity(op)
	}
}

func defaultSelectivity(op tuple.CmpOp) float64 {
	switch op {
	case tuple.CmpEQ:
		return DefaultEqSelectivity
	case tuple.CmpNE:
		return DefaultNeSelectivity
	default:
		return DefaultRangeSelectivity
	}
}

// interpolate assumes a uniform distribution over [min, max] — the estimate a
// System-R optimizer makes *without* a histogram. On the skewed fields of the
// paper's dataset this is exactly the estimate histograms improve upon.
func interpolate(op tuple.CmpOp, min, max, c float64) float64 {
	if max <= min {
		return DefaultRangeSelectivity
	}
	frac := (c - min) / (max - min)
	frac = clamp01(frac)
	switch op {
	case tuple.CmpLT, tuple.CmpLE:
		return frac
	default: // GT, GE
		return 1 - frac
	}
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// Bucket is one equi-depth histogram bucket over [Lo, Hi].
type Bucket struct {
	Lo, Hi   float64
	Count    int64
	Distinct int64
}

// Histogram is an equi-depth histogram over a numeric column.
type Histogram struct {
	Buckets []Bucket
	Total   int64
}

// BuildHistogram constructs an equi-depth histogram with at most numBuckets
// buckets from the given numeric values. Non-numeric values are rejected.
//
// The values are taken as floats and go through Images.Histogram: a linear-time
// sort of their order-preserving images, the order sort.Float64s gives bit for
// bit, or sort.Float64s itself for a column holding a NaN or a -0.
func BuildHistogram(values []tuple.Value, numBuckets int) (*Histogram, error) {
	c := NewImages(tuple.KindFloat, len(values), false)
	defer c.Release()
	for _, v := range values {
		if !v.IsNumeric() {
			return nil, fmt.Errorf("stats: histogram over non-numeric kind %v", v.Kind())
		}
		c.Add(tuple.NewFloat(v.AsFloat()), 0)
	}
	return c.Histogram(numBuckets)
}

// equiDepth cuts n sorted values, the i-th of which is at(i), into at most
// numBuckets buckets of about equal depth.
func equiDepth(n, numBuckets int, at func(int) float64) []Bucket {
	var buckets []Bucket
	depth := (n + numBuckets - 1) / numBuckets
	for start := 0; start < n; {
		end := min(start+depth, n)
		// Extend the bucket so equal values never straddle a boundary;
		// otherwise equality estimates near boundaries double-count.
		for end < n && at(end) == at(end-1) {
			end++
		}
		b := Bucket{Lo: at(start), Hi: at(end - 1), Count: int64(end - start)}
		d := int64(1)
		for i := start + 1; i < end; i++ {
			if at(i) != at(i-1) {
				d++
			}
		}
		b.Distinct = d
		buckets = append(buckets, b)
		start = end
	}
	return buckets
}

// Selectivity estimates the fraction of rows with "value op c".
func (h *Histogram) Selectivity(op tuple.CmpOp, c float64) float64 {
	if h == nil || h.Total == 0 {
		return defaultSelectivity(op)
	}
	switch op {
	case tuple.CmpEQ:
		return clamp01(h.estimateEq(c))
	case tuple.CmpNE:
		return clamp01(1 - h.estimateEq(c))
	case tuple.CmpLT:
		return clamp01(h.estimateLess(c, false))
	case tuple.CmpLE:
		return clamp01(h.estimateLess(c, true))
	case tuple.CmpGT:
		return clamp01(1 - h.estimateLess(c, true))
	case tuple.CmpGE:
		return clamp01(1 - h.estimateLess(c, false))
	default:
		return defaultSelectivity(op)
	}
}

func (h *Histogram) estimateEq(c float64) float64 {
	for _, b := range h.Buckets {
		if c < b.Lo || c > b.Hi {
			continue
		}
		if b.Distinct == 0 {
			continue
		}
		// Uniform-within-bucket: each distinct value holds count/distinct rows.
		return float64(b.Count) / float64(b.Distinct) / float64(h.Total)
	}
	return 0
}

// estimateLess returns the estimated fraction with value < c (or ≤ c when
// inclusive), using linear interpolation within the straddling bucket.
func (h *Histogram) estimateLess(c float64, inclusive bool) float64 {
	var below float64
	for _, b := range h.Buckets {
		switch {
		case b.Hi < c:
			below += float64(b.Count)
		case b.Lo > c:
			// entire bucket above
		default: // straddling bucket
			var frac float64
			if b.Hi > b.Lo {
				frac = (c - b.Lo) / (b.Hi - b.Lo)
			} else if inclusive {
				frac = 1 // single-value bucket equal to c
			}
			below += frac * float64(b.Count)
		}
	}
	sel := below / float64(h.Total)
	if inclusive {
		sel += h.estimateEq(c) * 0.5 // nudge toward including the point mass
	}
	return sel
}

// EstimateJoinSelectivity estimates the selectivity of an equi-join between
// two columns with the given statistics: 1/max(distinct_l, distinct_r), the
// standard textbook formula.
func EstimateJoinSelectivity(l, r *ColumnStats) float64 {
	dl, dr := int64(0), int64(0)
	if l != nil {
		dl = l.Distinct
	}
	if r != nil {
		dr = r.Distinct
	}
	d := dl
	if dr > d {
		d = dr
	}
	if d <= 0 {
		return DefaultEqSelectivity
	}
	return 1 / float64(d)
}
