package tuple

import (
	"bytes"
	"cmp"
	"math"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"specdb/internal/sim"
)

// TestValueLayout pins what every arena chunk, join table and cached answer
// multiplies by: a Value is three words, and == on it does not compile.
func TestValueLayout(t *testing.T) {
	if size := unsafe.Sizeof(Value{}); size != 24 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 24", size)
	}
	if reflect.TypeOf(Value{}).Comparable() {
		t.Fatal("Value is comparable: == would compare string payloads by address")
	}
}

func TestZeroValue(t *testing.T) {
	var v Value
	if v.Kind != KindInvalid || v.Str() != "" || v.Int() != 0 || v.Float() != 0 {
		t.Fatalf("zero Value: kind %v, Str %q, Int %d, Float %g", v.Kind, v.Str(), v.Int(), v.Float())
	}
	for _, v := range []Value{NewInt(7), NewDate(7), NewFloat(7)} {
		if v.Str() != "" {
			t.Fatalf("%v: Str() = %q, want \"\" for a non-string kind", v, v.Str())
		}
	}
}

// identical reports the same kind and the same payload, floats bit for bit.
func identical(a, b Value) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case KindFloat:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case KindString:
		return a.Str() == b.Str()
	default:
		return a.Int() == b.Int()
	}
}

// TestRepresentationRoundTrips takes each edge payload from its constructor
// through its accessor, the row codec and the key codec.
func TestRepresentationRoundTrips(t *testing.T) {
	negZero := math.Copysign(0, -1)
	long := strings.Repeat("0123456789abcdef", 4096) // 64 KiB
	values := []Value{
		NewString(""), NewString("x"), NewString(long),
		NewInt(math.MinInt64), NewInt(math.MaxInt64), NewInt(0), NewInt(-1),
		NewFloat(negZero), NewFloat(0), NewFloat(math.NaN()), NewFloat(math.Inf(1)), NewFloat(math.Inf(-1)),
		NewDate(0), NewDate(math.MinInt64),
	}
	if got := NewString(long).Str(); got != long {
		t.Fatal("64 KiB string did not come back from Str()")
	}
	if got := NewInt(math.MinInt64).Int(); got != math.MinInt64 {
		t.Fatalf("Int() = %d", got)
	}
	if got := NewFloat(negZero).Float(); math.Float64bits(got) != math.Float64bits(negZero) {
		t.Fatalf("Float() lost the sign of -0.0: %x", math.Float64bits(got))
	}
	if got := NewFloat(math.NaN()).Float(); !math.IsNaN(got) {
		t.Fatalf("Float() = %g, want NaN", got)
	}
	for _, v := range values {
		s := NewSchema(Column{"pad", KindInt}, Column{"v", v.Kind}, Column{"tail", KindString})
		row := Row{NewInt(-3), v, NewString("tail")}
		rec, err := EncodeRow(nil, s, row)
		if err != nil {
			t.Fatalf("%v: %v", v.Kind, err)
		}
		if len(rec) != EncodedSize(s, row) {
			t.Fatalf("%v: encoded %d bytes, EncodedSize says %d", v.Kind, len(rec), EncodedSize(s, row))
		}
		got := make(Row, 3)
		n, err := DecodeRowInto(got, rec, s)
		if err != nil || n != len(rec) {
			t.Fatalf("%v: decode consumed %d of %d: %v", v.Kind, n, len(rec), err)
		}
		for i := range row {
			if !identical(got[i], row[i]) {
				t.Fatalf("%v: column %d decoded as %v, want %v", v.Kind, i, got[i], row[i])
			}
		}
		if key, again := EncodeKey(nil, v), EncodeKey(nil, got[1]); !bytes.Equal(key, again) {
			t.Fatalf("%v: key of the decoded value %x, of the original %x", v.Kind, again, key)
		}
		if v.Kind == KindString {
			if key := EncodeKey(nil, v); string(key) != v.Str() {
				t.Fatalf("string key is not the string's bytes (%d bytes for %d)", len(key), len(v.Str()))
			}
		} else if key := EncodeKey(nil, v); len(key) != 8 || KeyBits(v) != KeyBits(got[1]) {
			t.Fatalf("%v: %d-byte key, images %x and %x", v, len(key), KeyBits(v), KeyBits(got[1]))
		}
	}
}

// TestDecodedStringOwnsItsBytes: the record usually aliases a pinned page that
// is recycled after the scan moves on, so a decoded string must be a copy.
func TestDecodedStringOwnsItsBytes(t *testing.T) {
	s := NewSchema(Column{"a", KindString}, Column{"b", KindString})
	rec, err := EncodeRow(nil, s, Row{NewString("first"), NewString("second")})
	if err != nil {
		t.Fatal(err)
	}
	row := make(Row, 2)
	if _, err := DecodeRowInto(row, rec, s); err != nil {
		t.Fatal(err)
	}
	for i := range rec {
		rec[i] = 0xFF
	}
	if row[0].Str() != "first" || row[1].Str() != "second" {
		t.Fatalf("decoded strings changed with their page buffer: %q, %q", row[0].Str(), row[1].Str())
	}
}

// TestFloatOfKeyBitsInvertsKeyBits: a float's key image maps back to the
// same IEEE bits — both zeros, infinities, NaN payloads, subnormals — and
// images keep the float order wherever Compare has one.
func TestFloatOfKeyBitsInvertsKeyBits(t *testing.T) {
	xs := []float64{math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), math.NaN(), -math.NaN(),
		math.Float64frombits(0x7ff0000000000001), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.MaxFloat64, -math.MaxFloat64, 1, -1, 0.1, -2.5e-300}
	rng := sim.NewRand(64)
	for range 1000 {
		xs = append(xs, math.Float64frombits(rng.Uint64()))
	}
	for _, x := range xs {
		if got := FloatOfKeyBits(KeyBits(NewFloat(x))); math.Float64bits(got) != math.Float64bits(x) {
			t.Fatalf("FloatOfKeyBits(KeyBits(%x)) = %x", math.Float64bits(x), math.Float64bits(got))
		}
	}
	for _, a := range xs {
		for _, b := range xs[:15] {
			if a < b && KeyBits(NewFloat(a)) >= KeyBits(NewFloat(b)) {
				t.Fatalf("%v < %v but their images are %x, %x", a, b, KeyBits(NewFloat(a)), KeyBits(NewFloat(b)))
			}
		}
	}
}

// TestCompareAgreesWithKeyOrder: Value.Compare, CmpOp.Eval, the byte order of
// EncodeKey and the unsigned order of KeyBits are one order on int64 payloads
// — an index scan and a scan-plus-filter of one predicate see the same rows.
// Compare used to go through float64, which folds neighbours beyond 2^53.
func TestCompareAgreesWithKeyOrder(t *testing.T) {
	const big = int64(1) << 53
	edges := []int64{
		math.MinInt64, math.MinInt64 + 1, -big - 2, -big - 1, -big, -big + 1, -1, 0, 1,
		big - 1, big, big + 1, big + 2, 1<<62 + 1, 1<<62 + 2, math.MaxInt64 - 1, math.MaxInt64,
	}
	var pairs [][2]int64
	for _, a := range edges {
		for _, b := range edges {
			pairs = append(pairs, [2]int64{a, b})
		}
	}
	rng := sim.NewRand(53)
	for i := 0; i < 2000; i++ {
		a := int64(rng.Uint64())
		pairs = append(pairs, [2]int64{a, int64(rng.Uint64())}, [2]int64{a, a + int64(rng.Intn(5)) - 2})
	}
	for _, mk := range []func(int64) Value{NewInt, NewDate} {
		for _, p := range pairs {
			a, b := mk(p[0]), mk(p[1])
			want := cmp.Compare(p[0], p[1])
			if got := a.Compare(b); got != want {
				t.Fatalf("%v.Compare(%v) = %d, want %d", a, b, got, want)
			}
			if got := bytes.Compare(EncodeKey(nil, a), EncodeKey(nil, b)); got != want {
				t.Fatalf("EncodeKey order of %v, %v = %d, want %d", a, b, got, want)
			}
			if got := cmp.Compare(KeyBits(a), KeyBits(b)); got != want {
				t.Fatalf("KeyBits order of %v, %v = %d, want %d", a, b, got, want)
			}
			for _, e := range []struct {
				op   CmpOp
				want bool
			}{{CmpEQ, want == 0}, {CmpNE, want != 0}, {CmpLT, want < 0}, {CmpLE, want <= 0}, {CmpGT, want > 0}, {CmpGE, want >= 0}} {
				if e.op.Eval(a, b) != e.want {
					t.Fatalf("%v %v %v = %v, want %v", a, e.op, b, !e.want, e.want)
				}
			}
		}
	}
	// An int against a date is the same int64 order; a float on either side
	// keeps the float64 comparison.
	if NewInt(big).Compare(NewDate(big+1)) != -1 {
		t.Error("int vs date beyond 2^53 compared through float64")
	}
	if NewInt(big+1).Compare(NewFloat(float64(big))) != 0 {
		t.Error("int vs float no longer compares as float64")
	}
}
