// Package tuple defines the value model shared by the storage engine,
// executor, and optimizer: typed scalar values, row schemas, rows, and a
// compact binary row codec used by slotted pages and B+-tree keys.
package tuple

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind enumerates the scalar types the engine supports. The set matches what
// the paper's TPC-H-subset workload needs: integers, decimals, strings, and
// dates (stored as days since epoch).
type Kind uint8

const (
	KindInvalid Kind = iota
	KindInt          // int64
	KindFloat        // float64
	KindString       // UTF-8 string
	KindDate         // int64 days since 1970-01-01
)

// String names the kind in lower-case SQL-ish form.
func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindDate:
		return "date"
	default:
		return "invalid"
	}
}

// Value is a scalar. It is a compact tagged union rather than an interface so
// rows are allocation-light: hot join/filter paths compare millions of these.
type Value struct {
	Kind Kind
	I    int64   // KindInt, KindDate
	F    float64 // KindFloat
	S    string  // KindString
}

// NewInt wraps an int64.
func NewInt(v int64) Value { return Value{Kind: KindInt, I: v} }

// NewFloat wraps a float64.
func NewFloat(v float64) Value { return Value{Kind: KindFloat, F: v} }

// NewString wraps a string.
func NewString(v string) Value { return Value{Kind: KindString, S: v} }

// NewDate wraps a day count since 1970-01-01.
func NewDate(days int64) Value { return Value{Kind: KindDate, I: days} }

// IsNumeric reports whether the value participates in numeric comparison.
func (v Value) IsNumeric() bool {
	return v.Kind == KindInt || v.Kind == KindFloat || v.Kind == KindDate
}

// AsFloat converts a numeric value to float64 for mixed-type comparison.
func (v Value) AsFloat() float64 {
	if v.Kind == KindFloat {
		return v.F
	}
	return float64(v.I)
}

// Compare orders v against o: −1, 0, +1. Numeric kinds compare numerically
// across int/float/date; strings compare lexically. Comparing a string with a
// numeric value panics — the planner type-checks predicates before execution,
// so reaching that case is an engine bug.
func (v Value) Compare(o Value) int {
	if v.IsNumeric() && o.IsNumeric() {
		a, b := v.AsFloat(), o.AsFloat()
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		default:
			return 0
		}
	}
	if v.Kind == KindString && o.Kind == KindString {
		return strings.Compare(v.S, o.S)
	}
	// Programmer invariant: the planner type-checks every comparison
	// (plan.BindGraph rejects incomparable kinds) before execution, so an
	// incomparable pair here means a plan bypassed binding.
	panic(fmt.Sprintf("tuple: incomparable kinds %v and %v", v.Kind, o.Kind))
}

// Equal reports whether v and o compare equal.
func (v Value) Equal(o Value) bool { return v.Compare(o) == 0 }

// String renders the value for display and EXPLAIN output.
func (v Value) String() string {
	switch v.Kind {
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindString:
		return "'" + v.S + "'"
	case KindDate:
		return fmt.Sprintf("date(%d)", v.I)
	default:
		return "<invalid>"
	}
}

// Row is one tuple: values positionally aligned with a Schema.
type Row []Value

// Clone returns a deep-enough copy (Value is value-typed; strings share
// backing storage, which is safe because rows are immutable once produced).
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// String renders the row as a parenthesized value list.
func (r Row) String() string {
	parts := make([]string, len(r))
	for i, v := range r {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}
