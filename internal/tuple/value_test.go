package tuple

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"math"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"specdb/internal/sim"
)

// TestValueLayout pins what every arena chunk, join table and cached answer
// multiplies by: a Value is two words, the kind riding in the pointer, and ==
// on it does not compile.
func TestValueLayout(t *testing.T) {
	if size := unsafe.Sizeof(Value{}); size != 16 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 16", size)
	}
	if reflect.TypeOf(Value{}).Comparable() {
		t.Fatal("Value is comparable: == would compare string payloads by address")
	}
}

func TestZeroValue(t *testing.T) {
	var v Value
	if v.Kind() != KindInvalid || v.Str() != "" || v.Int() != 0 || v.Float() != 0 {
		t.Fatalf("zero Value: kind %v, Str %q, Int %d, Float %g", v.Kind(), v.Str(), v.Int(), v.Float())
	}
	for _, v := range []Value{NewInt(7), NewDate(7), NewFloat(7)} {
		if v.Str() != "" {
			t.Fatalf("%v: Str() = %q, want \"\" for a non-string kind", v, v.Str())
		}
	}
}

// identical reports the same kind and the same payload, floats bit for bit.
func identical(a, b Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
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
		s := NewSchema(Column{"pad", KindInt}, Column{"v", v.Kind()}, Column{"tail", KindString})
		row := Row{NewInt(-3), v, NewString("tail")}
		rec, err := EncodeRow(nil, s, row)
		if err != nil {
			t.Fatalf("%v: %v", v.Kind(), err)
		}
		if len(rec) != EncodedSize(s, row) {
			t.Fatalf("%v: encoded %d bytes, EncodedSize says %d", v.Kind(), len(rec), EncodedSize(s, row))
		}
		got := make(Row, 3)
		n, err := DecodeRowInto(got, rec, s)
		if err != nil || n != len(rec) {
			t.Fatalf("%v: decode consumed %d of %d: %v", v.Kind(), n, len(rec), err)
		}
		for i := range row {
			if !identical(got[i], row[i]) {
				t.Fatalf("%v: column %d decoded as %v, want %v", v.Kind(), i, got[i], row[i])
			}
		}
		if key, again := EncodeKey(nil, v), EncodeKey(nil, got[1]); !bytes.Equal(key, again) {
			t.Fatalf("%v: key of the decoded value %x, of the original %x", v.Kind(), again, key)
		}
		if v.Kind() == KindString {
			if key := EncodeKey(nil, v); string(key) != v.Str() {
				t.Fatalf("string key is not the string's bytes (%d bytes for %d)", len(key), len(v.Str()))
			}
		} else if key := EncodeKey(nil, v); len(key) != 8 || KeyBitsOf(v.Kind(), v) != KeyBitsOf(got[1].Kind(), got[1]) {
			t.Fatalf("%v: %d-byte key, images %x and %x", v, len(key), KeyBitsOf(v.Kind(), v), KeyBitsOf(got[1].Kind(), got[1]))
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
		if got := FloatOfKeyBits(KeyBitsOf(KindFloat, NewFloat(x))); math.Float64bits(got) != math.Float64bits(x) {
			t.Fatalf("FloatOfKeyBits(KeyBits(%x)) = %x", math.Float64bits(x), math.Float64bits(got))
		}
	}
	for _, a := range xs {
		for _, b := range xs[:15] {
			if a < b && KeyBitsOf(KindFloat, NewFloat(a)) >= KeyBitsOf(KindFloat, NewFloat(b)) {
				t.Fatalf("%v < %v but their images are %x, %x", a, b, KeyBitsOf(KindFloat, NewFloat(a)), KeyBitsOf(KindFloat, NewFloat(b)))
			}
		}
	}
}

// TestCompareAgreesWithKeyOrder: Value.Compare, CmpOp.Eval, the byte order of
// EncodeKey and the unsigned order of KeyBitsOf are one order on int64 payloads
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
			if got := cmp.Compare(KeyBitsOf(a.Kind(), a), KeyBitsOf(b.Kind(), b)); got != want {
				t.Fatalf("KeyBitsOf order of %v, %v = %d, want %d", a, b, got, want)
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

// kindCase is one edge value as its constructor makes it, with what the
// three-word representation (kind byte, payload word, pointer) answered for
// it: the payload and the KeyBitsOf image, written out as numbers. The image
// is also the 8-byte EncodeKey; a string's key is its bytes.
type kindCase struct {
	name string
	kind Kind
	v    Value
	i    int64   // KindInt, KindDate
	f    float64 // KindFloat
	s    string  // KindString
	bits uint64  // KeyBitsOf, numbers only
}

func kindCases() []kindCase {
	long := strings.Repeat("0123456789abcdef", 4096) // 64 KiB
	negZero, nan := math.Copysign(0, -1), math.NaN()
	return []kindCase{
		{name: "empty string", kind: KindString, v: NewString("")},
		{name: "1-byte string", kind: KindString, v: NewString("x"), s: "x"},
		{name: "64 KiB string", kind: KindString, v: NewString(long), s: long},
		{name: "MinInt64", kind: KindInt, v: NewInt(math.MinInt64), i: math.MinInt64, bits: 0},
		{name: "MaxInt64", kind: KindInt, v: NewInt(math.MaxInt64), i: math.MaxInt64, bits: 0xFFFF_FFFF_FFFF_FFFF},
		{name: "-0.0", kind: KindFloat, v: NewFloat(negZero), f: negZero, bits: 0x7FFF_FFFF_FFFF_FFFF},
		{name: "NaN", kind: KindFloat, v: NewFloat(nan), f: nan, bits: 0xFFF8_0000_0000_0001},
		{name: "+Inf", kind: KindFloat, v: NewFloat(math.Inf(1)), f: math.Inf(1), bits: 0xFFF0_0000_0000_0000},
		{name: "-Inf", kind: KindFloat, v: NewFloat(math.Inf(-1)), f: math.Inf(-1), bits: 0x000F_FFFF_FFFF_FFFF},
		{name: "date 0", kind: KindDate, v: NewDate(0), i: 0, bits: 0x8000_0000_0000_0000},
	}
}

// kindCompare is Compare as the three-word representation answered it, from
// the cases' Go payloads: ints and dates as int64, a pair with a float as
// float64 (NaN equal to everything), strings lexically.
func kindCompare(a, b kindCase) int {
	switch {
	case a.kind == KindString:
		return strings.Compare(a.s, b.s)
	case a.kind != KindFloat && b.kind != KindFloat:
		return cmp.Compare(a.i, b.i)
	}
	x, y := a.f, b.f
	if a.kind != KindFloat {
		x = float64(a.i)
	}
	if b.kind != KindFloat {
		y = float64(b.i)
	}
	switch {
	case x < y:
		return -1
	case x > y:
		return 1
	}
	return 0
}

// kindSources makes c's value every way a value is made: its constructor,
// aliasString for a string, and the three decoders, from a stored row with c
// between an int and an empty string.
func kindSources(t *testing.T, c kindCase) map[string]Value {
	t.Helper()
	s := NewSchema(Column{"pad", KindInt}, Column{"v", c.kind}, Column{"tail", KindString})
	rec, err := EncodeRow(nil, s, Row{NewInt(-3), c.v, NewString("")})
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	if len(rec) != EncodedSize(s, Row{NewInt(-3), c.v, NewString("")}) {
		t.Fatalf("%s: EncodedSize disagrees with EncodeRow", c.name)
	}
	whole, live, proj := make(Row, 3), make(Row, 3), make(Row, 2)
	if n, err := DecodeRowInto(whole, rec, s); err != nil || n != len(rec) {
		t.Fatalf("%s: DecodeRowInto consumed %d of %d: %v", c.name, n, len(rec), err)
	}
	if _, err := DecodeLive(live, rec, s, ColsOf(1), nil); err != nil {
		t.Fatalf("%s: DecodeLive: %v", c.name, err)
	}
	if _, err := DecodeLive(proj, rec, s, ColsOf(1, 2), []int{2, 1}); err != nil {
		t.Fatalf("%s: DecodeLive projected: %v", c.name, err)
	}
	col, _, err := DecodeColumn(rec, s, 1)
	if err != nil {
		t.Fatalf("%s: DecodeColumn: %v", c.name, err)
	}
	tail, _, err := DecodeColumn(rec, s, 2)
	if err != nil || !tail.Is(KindString) || whole[2].Kind() != KindString || proj[0].Kind() != KindString {
		t.Fatalf("%s: the trailing empty string decoded as %v, %v, %v (%v)", c.name, tail.Kind(), whole[2].Kind(), proj[0].Kind(), err)
	}
	out := map[string]Value{"constructor": c.v, "DecodeRowInto": whole[1], "DecodeLive": live[1],
		"DecodeLive projected": proj[1], "DecodeColumn": col}
	if c.kind == KindString {
		out["aliasString"] = aliasString([]byte(c.s))
		out["NewString copy"] = NewString(string([]byte(c.s)))
	}
	return out
}

// TestKindsTable holds every way of making a value, on the edge payloads, to
// the answers of the three-word representation: the kind, the payload, the
// key image and key, and Compare against every other case of a comparable
// kind. The empty string is the one that carries no bytes of its own and
// must still be a string.
func TestKindsTable(t *testing.T) {
	cases := kindCases()
	made := make([]map[string]Value, len(cases))
	for i, c := range cases {
		made[i] = kindSources(t, c)
		for src, v := range made[i] {
			what := c.name + " from " + src
			if v.Kind() != c.kind || !v.Is(c.kind) {
				t.Fatalf("%s: kind %v, want %v", what, v.Kind(), c.kind)
			}
			for _, k := range []Kind{KindInvalid, KindInt, KindFloat, KindString, KindDate} {
				if k != c.kind && v.Is(k) {
					t.Fatalf("%s: Is(%v) for a %v", what, k, c.kind)
				}
			}
			key := EncodeKey(nil, v)
			if !bytes.Equal(key, EncodeKeyOf(nil, c.kind, v)) || len(key) != KeySizeOf(c.kind, v) {
				t.Fatalf("%s: EncodeKey %x, EncodeKeyOf %x, KeySizeOf %d", what, key, EncodeKeyOf(nil, c.kind, v), KeySizeOf(c.kind, v))
			}
			switch c.kind {
			case KindString:
				if v.Str() != c.s || string(key) != c.s {
					t.Fatalf("%s: Str() is %d bytes, key %d, want %d", what, len(v.Str()), len(key), len(c.s))
				}
				continue
			case KindFloat:
				if math.Float64bits(v.Float()) != math.Float64bits(c.f) {
					t.Fatalf("%s: Float() bits %x, want %x", what, math.Float64bits(v.Float()), math.Float64bits(c.f))
				}
			default:
				if v.Int() != c.i {
					t.Fatalf("%s: Int() = %d, want %d", what, v.Int(), c.i)
				}
			}
			if v.Str() != "" {
				t.Fatalf("%s: Str() = %q for a %v", what, v.Str(), c.kind)
			}
			if KeyBitsOf(v.Kind(), v) != c.bits || KeyBitsOf(c.kind, v) != c.bits || binary.BigEndian.Uint64(key) != c.bits {
				t.Fatalf("%s: KeyBitsOf %x, of its own kind %x, key %x; want %x", what, KeyBitsOf(c.kind, v), KeyBitsOf(v.Kind(), v), key, c.bits)
			}
		}
	}
	for i, a := range cases {
		for j, b := range cases {
			if (a.kind == KindString) != (b.kind == KindString) {
				continue
			}
			want := kindCompare(a, b)
			for sa, va := range made[i] {
				for sb, vb := range made[j] {
					if got := va.Compare(vb); got != want {
						t.Fatalf("%s from %s vs %s from %s: Compare = %d, want %d", a.name, sa, b.name, sb, got, want)
					}
				}
			}
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Compare of an empty string with date 0 did not panic")
			}
		}()
		NewString("").Compare(NewDate(0))
	}()
}
