// Package tuple defines the value model shared by the storage engine,
// executor, and optimizer: typed scalar values, row schemas, rows, and a
// compact binary row codec used by slotted pages and B+-tree keys.
package tuple

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unsafe"
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

// Value is a scalar: a compact tagged union rather than an interface, so rows
// are allocation-light — hot join/filter paths copy, hash and compare millions
// of these. It is 24 bytes (DESIGN.md §15, "What a value costs"): the kind,
// one payload word — the int64 or date, the float64's bits, or the string's
// length — and one pointer to the string's bytes. Only the kind says how to
// read the payload, so it is private behind Int, Float and Str.
//
// The zero-size func array makes a Value non-comparable: on a pointer payload
// == would ask "same bytes in memory", so it does not compile; Equal and
// Compare are the comparisons. ptr is an unsafe.Pointer, not a *byte, so that
// reflect.DeepEqual compares it by address and can only err towards
// "different" — it would follow a *byte and compare one byte.
type Value struct {
	_    [0]func()
	Kind Kind
	word uint64
	ptr  unsafe.Pointer
}

// NewInt wraps an int64.
func NewInt(v int64) Value { return Value{Kind: KindInt, word: uint64(v)} }

// NewFloat wraps a float64.
func NewFloat(v float64) Value { return Value{Kind: KindFloat, word: math.Float64bits(v)} }

// NewString wraps a string. The value shares the string's bytes.
func NewString(v string) Value {
	return Value{Kind: KindString, word: uint64(len(v)), ptr: unsafe.Pointer(unsafe.StringData(v))}
}

// aliasString wraps b as a string value without copying it: the value reads
// b's bytes, so it is valid only while they stay unchanged. DecodeColumn hands
// such values out for a test or a lookup that drops them.
func aliasString(b []byte) Value {
	if len(b) == 0 {
		return Value{Kind: KindString}
	}
	return Value{Kind: KindString, word: uint64(len(b)), ptr: unsafe.Pointer(unsafe.SliceData(b))}
}

// NewDate wraps a day count since 1970-01-01.
func NewDate(days int64) Value { return Value{Kind: KindDate, word: uint64(days)} }

// Int is the payload of a KindInt or KindDate value. Like Float it reads the
// payload word without looking at the kind: callers have switched on it.
func (v Value) Int() int64 { return int64(v.word) }

// Float is the payload of a KindFloat value.
func (v Value) Float() float64 { return math.Float64frombits(v.word) }

// Str is the payload of a KindString value, and "" for every other kind —
// the one accessor that must check, because there the word is not a length.
func (v Value) Str() string {
	if v.Kind != KindString {
		return ""
	}
	return unsafe.String((*byte)(v.ptr), int(v.word))
}

// IsNumeric reports whether the value participates in numeric comparison.
func (v Value) IsNumeric() bool {
	return v.Kind == KindInt || v.Kind == KindFloat || v.Kind == KindDate
}

// AsFloat converts a numeric value to float64 for mixed-type comparison.
func (v Value) AsFloat() float64 {
	if v.Kind == KindFloat {
		return v.Float()
	}
	return float64(v.Int())
}

// Compare orders v against o: −1, 0, +1. Numeric kinds compare numerically
// across int/float/date; strings compare lexically. Two int64 payloads (ints,
// dates) compare as int64, the order EncodeKey and KeyBits give them; only a
// pair with a float in it goes through float64, which cannot tell 2⁵³ from
// 2⁵³+1. Comparing a string with a numeric value panics — the planner
// type-checks predicates before execution, so reaching that case is an
// engine bug.
func (v Value) Compare(o Value) int {
	if v.IsNumeric() && o.IsNumeric() {
		if v.Kind != KindFloat && o.Kind != KindFloat {
			return cmp.Compare(v.Int(), o.Int())
		}
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
		return strings.Compare(v.Str(), o.Str())
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
		return strconv.FormatInt(v.Int(), 10)
	case KindFloat:
		return strconv.FormatFloat(v.Float(), 'g', -1, 64)
	case KindString:
		return "'" + v.Str() + "'"
	case KindDate:
		return fmt.Sprintf("date(%d)", v.Int())
	default:
		return "<invalid>"
	}
}

// Row is one tuple: values positionally aligned with a Schema.
type Row []Value

// String renders the row as a parenthesized value list.
func (r Row) String() string {
	parts := make([]string, len(r))
	for i, v := range r {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}
