package stats

import (
	"math"

	"specdb/internal/tuple"
)

// ReferenceColumnStats hands the buffered reference implementation to the
// external tests of this package (feeders_test.go), which need the engine and
// so cannot live inside it.
var ReferenceColumnStats = referenceColumnStats

// CollectColumnStats is a Collector's statistics over values, for tests that
// hold a column as a slice.
func CollectColumnStats(values []tuple.Value) *ColumnStats {
	var c Collector
	for _, v := range values {
		c.Add(v)
	}
	defer c.Release()
	return c.Stats()
}

// Summary is the part of a ColumnStats the optimizer reads.
type Summary struct {
	Count, Distinct int64
	HasRange        bool
	Min, Max        tuple.Value
}

func SummaryOf(cs *ColumnStats) Summary {
	return Summary{cs.Count, cs.Distinct, cs.HasRange, cs.Min, cs.Max}
}

// Same reports that two summaries carry the same numbers and the same bounds.
// A Value cannot be compared with == or reflect.DeepEqual: its string payload
// is a pointer.
func (a Summary) Same(b Summary) bool {
	return a.Count == b.Count && a.Distinct == b.Distinct && a.HasRange == b.HasRange &&
		identical(a.Min, b.Min) && identical(a.Max, b.Max)
}

// identical reports that a and b are the same value, not merely
// Compare-equal: the same kind and the same payload, floats bit for bit (NaN
// is itself, +0.0 is not -0.0).
func identical(a, b tuple.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case tuple.KindFloat:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case tuple.KindString:
		return a.Str() == b.Str()
	default:
		return a.Int() == b.Int()
	}
}
