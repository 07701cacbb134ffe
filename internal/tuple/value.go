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
// of these. It is 16 bytes (DESIGN.md §15, "What a value costs"): one payload
// word — the int64 or date, the float64's bits, or the string's length — and
// one pointer, which carries the kind. A string's ptr points at its bytes;
// every other kind's ptr, and an empty string's, points at that kind's byte
// in kindTags; the zero Value's is nil and its kind KindInvalid. Only the
// kind says how to read the payload, so it is private behind Int, Float and
// Str.
//
// The zero-size func array makes a Value non-comparable: on a pointer payload
// == would ask "same bytes in memory", so it does not compile; Equal and
// Compare are the comparisons. ptr is an unsafe.Pointer, not a *byte, so that
// reflect.DeepEqual compares it by address and can only err towards
// "different" — it would follow a *byte and compare one byte.
type Value struct {
	_    [0]func()
	word uint64
	ptr  unsafe.Pointer
}

// kindTags holds one byte per kind; a non-string value points at its kind's.
// It is a package variable, outside the heap: the collector ignores pointers
// to it, and no string's bytes can lie inside it, so a pointer into it is a
// kind and any other non-nil pointer is string bytes.
var kindTags [KindDate + 1]byte

// tag is the ptr of a value of kind k that carries no string bytes.
func tag(k Kind) unsafe.Pointer { return unsafe.Pointer(&kindTags[k]) }

// Kind is the value's type. A loop over the values of one column takes the
// column's kind from its schema instead, once (DESIGN.md §15, "What a value
// costs").
func (v Value) Kind() Kind {
	if d := uintptr(v.ptr) - uintptr(tag(KindInvalid)); d < uintptr(len(kindTags)) {
		return Kind(d)
	}
	if v.ptr == nil {
		return KindInvalid
	}
	return KindString
}

// Is reports whether v is of kind k: for a number one comparison, where Kind
// takes two.
func (v Value) Is(k Kind) bool {
	switch k {
	case KindInt, KindFloat, KindDate:
		return v.ptr == tag(k)
	}
	return v.Kind() == k
}

// NewInt wraps an int64.
func NewInt(v int64) Value { return Value{word: uint64(v), ptr: tag(KindInt)} }

// NewFloat wraps a float64.
func NewFloat(v float64) Value { return Value{word: math.Float64bits(v), ptr: tag(KindFloat)} }

// NewString wraps a string. The value shares the string's bytes.
func NewString(v string) Value {
	if len(v) == 0 {
		return Value{ptr: tag(KindString)}
	}
	return Value{word: uint64(len(v)), ptr: unsafe.Pointer(unsafe.StringData(v))}
}

// aliasString wraps b as a string value without copying it: the value reads
// b's bytes, so it is valid only while they stay unchanged. DecodeColumn hands
// such values out for a test or a lookup that drops them.
func aliasString(b []byte) Value {
	if len(b) == 0 {
		return Value{ptr: tag(KindString)}
	}
	return Value{word: uint64(len(b)), ptr: unsafe.Pointer(unsafe.SliceData(b))}
}

// NewDate wraps a day count since 1970-01-01.
func NewDate(days int64) Value { return Value{word: uint64(days), ptr: tag(KindDate)} }

// numeric is a value of kind k (not a string) with payload word w.
func numeric(k Kind, w uint64) Value { return Value{word: w, ptr: tag(k)} }

// Int is the payload of a KindInt or KindDate value. Like Float it reads the
// payload word without looking at the kind: callers have switched on it.
func (v Value) Int() int64 { return int64(v.word) }

// Float is the payload of a KindFloat value.
func (v Value) Float() float64 { return math.Float64frombits(v.word) }

// Str is the payload of a KindString value, and "" for every other kind —
// the one accessor that must check, because there the word is not a length.
func (v Value) Str() string {
	if v.Kind() != KindString {
		return ""
	}
	return v.str()
}

// str is the payload of a value known to be a string.
func (v Value) str() string { return unsafe.String((*byte)(v.ptr), int(v.word)) }

// IsNumeric reports whether the value participates in numeric comparison.
func (v Value) IsNumeric() bool {
	k := v.Kind()
	return k == KindInt || k == KindFloat || k == KindDate
}

// AsFloat converts a numeric value to float64 for mixed-type comparison.
func (v Value) AsFloat() float64 {
	if v.ptr == tag(KindFloat) {
		return v.Float()
	}
	return float64(v.Int())
}

// Compare orders v against o: −1, 0, +1. Numeric kinds compare numerically
// across int/float/date; strings compare lexically. Two int64 payloads (ints,
// dates) compare as int64, the order EncodeKey and KeyBitsOf give them; only a
// pair with a float in it goes through float64, which cannot tell 2⁵³ from
// 2⁵³+1. Comparing a string with a numeric value panics — the planner
// type-checks predicates before execution, so reaching that case is an
// engine bug.
func (v Value) Compare(o Value) int {
	vk, ok := v.Kind(), o.Kind()
	switch {
	case (vk == KindInt || vk == KindDate) && (ok == KindInt || ok == KindDate):
		return cmp.Compare(v.Int(), o.Int())
	case vk == KindString && ok == KindString:
		return strings.Compare(v.str(), o.str())
	case !v.IsNumeric() || !o.IsNumeric():
		// Programmer invariant: the planner type-checks every comparison
		// (plan.BindGraph rejects incomparable kinds) before execution, so an
		// incomparable pair here means a plan bypassed binding.
		panic(fmt.Sprintf("tuple: incomparable kinds %v and %v", vk, ok))
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

// Equal reports whether v and o compare equal.
func (v Value) Equal(o Value) bool { return v.Compare(o) == 0 }

// String renders the value for display and EXPLAIN output.
func (v Value) String() string {
	switch v.Kind() {
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
