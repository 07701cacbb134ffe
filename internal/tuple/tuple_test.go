package tuple

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"specdb/internal/sim"
)

func testSchema() *Schema {
	return NewSchema(
		Column{"id", KindInt},
		Column{"price", KindFloat},
		Column{"name", KindString},
		Column{"shipped", KindDate},
	)
}

func TestValueConstructorsAndString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{NewInt(42), "42"},
		{NewFloat(2.5), "2.5"},
		{NewString("abc"), "'abc'"},
		{NewDate(100), "date(100)"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestValueCompare(t *testing.T) {
	if NewInt(1).Compare(NewInt(2)) != -1 {
		t.Error("1 < 2 failed")
	}
	if NewInt(2).Compare(NewFloat(1.5)) != 1 {
		t.Error("cross-kind numeric compare failed")
	}
	if !NewFloat(3).Equal(NewInt(3)) {
		t.Error("3.0 == 3 failed")
	}
	if NewString("a").Compare(NewString("b")) != -1 {
		t.Error("string compare failed")
	}
	if !NewDate(5).Equal(NewDate(5)) {
		t.Error("date equal failed")
	}
}

func TestValueCompareIncomparablePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("string vs int compare did not panic")
		}
	}()
	NewString("a").Compare(NewInt(1))
}

func TestSchemaOrdinal(t *testing.T) {
	s := testSchema()
	if s.Ordinal("price") != 1 {
		t.Errorf("Ordinal(price) = %d", s.Ordinal("price"))
	}
	if s.Ordinal("nope") != -1 {
		t.Error("missing column should be -1")
	}
	if s.MustOrdinal("name") != 2 {
		t.Error("MustOrdinal failed")
	}
}

func TestSchemaMustOrdinalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustOrdinal on missing column did not panic")
		}
	}()
	testSchema().MustOrdinal("ghost")
}

func TestSchemaDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate column did not panic")
		}
	}()
	NewSchema(Column{"a", KindInt}, Column{"a", KindInt})
}

func TestSchemaProject(t *testing.T) {
	s := testSchema()
	p, err := s.Project("name", "id")
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 2 || p.Columns[0].Name != "name" || p.Columns[1].Name != "id" {
		t.Fatalf("projected schema %v", p)
	}
	if _, err := s.Project("ghost"); err == nil {
		t.Fatal("projecting missing column should error")
	}
}

func TestSchemaConcatRename(t *testing.T) {
	a := NewSchema(Column{"x", KindInt})
	b := NewSchema(Column{"y", KindFloat})
	c := a.Concat(b)
	if c.Len() != 2 || c.Ordinal("y") != 1 {
		t.Fatalf("concat schema %v", c)
	}
	r := c.Rename(func(n string) string { return "t." + n })
	if r.Ordinal("t.x") != 0 || r.Ordinal("t.y") != 1 {
		t.Fatalf("renamed schema %v", r)
	}
}

func TestSchemaValidate(t *testing.T) {
	s := testSchema()
	good := Row{NewInt(1), NewFloat(2), NewString("x"), NewDate(3)}
	if err := s.Validate(good); err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(good[:3]); err == nil {
		t.Fatal("short row should fail validation")
	}
	bad := Row{NewInt(1), NewInt(2), NewString("x"), NewDate(3)}
	if err := s.Validate(bad); err == nil {
		t.Fatal("kind mismatch should fail validation")
	}
}

func TestRowClone(t *testing.T) {
	r := Row{NewInt(1), NewString("a")}
	c := r.Clone()
	c[0] = NewInt(9)
	if r[0].Int() != 1 {
		t.Fatal("clone aliases original")
	}
	if got := r.String(); got != "(1, 'a')" {
		t.Fatalf("row string %q", got)
	}
}

func TestRowCodecRoundTrip(t *testing.T) {
	s := testSchema()
	rows := []Row{
		{NewInt(0), NewFloat(0), NewString(""), NewDate(0)},
		{NewInt(-1 << 40), NewFloat(math.Pi), NewString("héllo, wörld"), NewDate(19000)},
		{NewInt(math.MaxInt64), NewFloat(math.Inf(-1)), NewString("x"), NewDate(-1)},
	}
	for _, r := range rows {
		buf, err := EncodeRow(nil, s, r)
		if err != nil {
			t.Fatal(err)
		}
		if len(buf) != EncodedSize(s, r) {
			t.Fatalf("EncodedSize %d, actual %d", EncodedSize(s, r), len(buf))
		}
		got, n, err := DecodeRow(buf, s)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(buf) {
			t.Fatalf("consumed %d of %d bytes", n, len(buf))
		}
		for i := range r {
			if got[i].Kind != r[i].Kind || !got[i].Equal(r[i]) {
				t.Fatalf("round-trip mismatch at %d: %v vs %v", i, got[i], r[i])
			}
		}
	}
}

func TestRowCodecRejectsMismatch(t *testing.T) {
	s := testSchema()
	if _, err := EncodeRow(nil, s, Row{NewInt(1)}); err == nil {
		t.Fatal("arity mismatch should fail")
	}
}

func TestDecodeRowTruncated(t *testing.T) {
	s := testSchema()
	r := Row{NewInt(12345), NewFloat(1.5), NewString("abcdef"), NewDate(7)}
	buf, err := EncodeRow(nil, s, r)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(buf); cut++ {
		if _, _, err := DecodeRow(buf[:cut], s); err == nil {
			t.Fatalf("decode of %d/%d bytes should fail", cut, len(buf))
		}
	}
}

// Property: row codec round-trips arbitrary values.
func TestRowCodecProperty(t *testing.T) {
	s := testSchema()
	f := func(id int64, price float64, name string, shipped int64) bool {
		if math.IsNaN(price) {
			price = 0 // NaN breaks Equal by design; engine never stores NaN
		}
		r := Row{NewInt(id), NewFloat(price), NewString(name), NewDate(shipped)}
		buf, err := EncodeRow(nil, s, r)
		if err != nil {
			return false
		}
		got, n, err := DecodeRow(buf, s)
		return err == nil && n == len(buf) &&
			got[0].Equal(r[0]) && got[1].Equal(r[1]) && got[2].Equal(r[2]) && got[3].Equal(r[3])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: EncodeKey is order-preserving for each kind.
func TestEncodeKeyOrderProperty(t *testing.T) {
	intProp := func(a, b int64) bool {
		ka := EncodeKey(nil, NewInt(a))
		kb := EncodeKey(nil, NewInt(b))
		return sign(bytes.Compare(ka, kb)) == sign(NewInt(a).Compare(NewInt(b)))
	}
	if err := quick.Check(intProp, nil); err != nil {
		t.Fatalf("int keys: %v", err)
	}
	floatProp := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		ka := EncodeKey(nil, NewFloat(a))
		kb := EncodeKey(nil, NewFloat(b))
		return sign(bytes.Compare(ka, kb)) == sign(NewFloat(a).Compare(NewFloat(b)))
	}
	if err := quick.Check(floatProp, nil); err != nil {
		t.Fatalf("float keys: %v", err)
	}
	strProp := func(a, b string) bool {
		ka := EncodeKey(nil, NewString(a))
		kb := EncodeKey(nil, NewString(b))
		return sign(bytes.Compare(ka, kb)) == sign(NewString(a).Compare(NewString(b)))
	}
	if err := quick.Check(strProp, nil); err != nil {
		t.Fatalf("string keys: %v", err)
	}
}

func TestEncodeKeyMixedNumericRandom(t *testing.T) {
	// Int and float keys live in different indexes, but date vs int shares
	// the integer encoding; spot-check with a seeded fuzz loop.
	r := sim.NewRand(11)
	for i := 0; i < 2000; i++ {
		a, b := r.Int63n(1<<40)-(1<<39), r.Int63n(1<<40)-(1<<39)
		ka := EncodeKey(nil, NewDate(a))
		kb := EncodeKey(nil, NewDate(b))
		if sign(bytes.Compare(ka, kb)) != sign(NewDate(a).Compare(NewDate(b))) {
			t.Fatalf("date key order broken for %d vs %d", a, b)
		}
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	default:
		return 0
	}
}

// decodeRowIntoReference is DecodeRowInto as it was before it took one-byte
// varints inline and walked the schema's kinds: every value through
// binary.Varint / binary.Uvarint, one Column copied per value. Kept as the
// reference the codec is compared with.
func decodeRowIntoReference(dst Row, buf []byte, s *Schema) (int, error) {
	if len(dst) != len(s.Columns) {
		return 0, fmt.Errorf("tuple: decode into %d values, schema arity %d", len(dst), len(s.Columns))
	}
	off := 0
	for i, c := range s.Columns {
		switch c.Kind {
		case KindInt, KindDate:
			v, n := binary.Varint(buf[off:])
			if n <= 0 {
				return 0, fmt.Errorf("tuple: truncated varint in column %q", c.Name)
			}
			off += n
			dst[i] = Value{Kind: c.Kind, word: uint64(v)}
		case KindFloat:
			if len(buf[off:]) < 8 {
				return 0, fmt.Errorf("tuple: truncated float in column %q", c.Name)
			}
			dst[i] = Value{Kind: KindFloat, word: binary.BigEndian.Uint64(buf[off:])}
			off += 8
		case KindString:
			l, n := binary.Uvarint(buf[off:])
			if n <= 0 {
				return 0, fmt.Errorf("tuple: truncated string length in column %q", c.Name)
			}
			off += n
			if uint64(len(buf[off:])) < l {
				return 0, fmt.Errorf("tuple: truncated string in column %q", c.Name)
			}
			dst[i] = NewString(string(buf[off : off+int(l)]))
			off += int(l)
		default:
			return 0, fmt.Errorf("tuple: cannot decode kind %v", c.Kind)
		}
	}
	return off, nil
}

// TestDecodeRowIntoMatchesReference decodes rows whose integers and string
// lengths sit on both sides of every varint length boundary, whole and cut at
// every byte, and wants the reference's values, byte counts and errors — the
// errors name the column, so the texts are compared.
func TestDecodeRowIntoMatchesReference(t *testing.T) {
	s := testSchema()
	ints := []int64{0, 1, -1, 63, -64, 64, -65, 8191, -8192, 8192, -8193, 1 << 20, -(1 << 20), 1<<53 + 1, math.MaxInt64, math.MinInt64}
	strs := []string{"", "x", strings.Repeat("a", 127), strings.Repeat("b", 128), strings.Repeat("c", 16384)}
	got, want := make(Row, s.Len()), make(Row, s.Len())
	for i, v := range ints {
		r := Row{NewInt(v), NewFloat(float64(v) / 3), NewString(strs[i%len(strs)]), NewDate(ints[len(ints)-1-i])}
		buf, err := EncodeRow(nil, s, r)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut <= len(buf); cut++ {
			if cut > 40 && cut < len(buf)-40 {
				continue // inside a long string: nothing new
			}
			gn, gerr := DecodeRowInto(got, buf[:cut], s)
			wn, werr := decodeRowIntoReference(want, buf[:cut], s)
			if gn != wn || (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
				t.Fatalf("row %v cut at %d/%d: got (%d, %v), reference (%d, %v)", r[0], cut, len(buf), gn, gerr, wn, werr)
			}
			if gerr != nil {
				continue
			}
			for c := range got {
				if got[c].Kind != want[c].Kind || got[c].word != want[c].word || got[c].Str() != want[c].Str() {
					t.Fatalf("row %v column %d: got %v, reference %v", r[0], c, got[c], want[c])
				}
			}
		}
	}
	if _, err := DecodeRowInto(make(Row, 2), nil, s); err == nil || err.Error() != "tuple: decode into 2 values, schema arity 4" {
		t.Fatalf("arity error: %v", err)
	}
}

// TestEncodeRowErrorsAreValidates pins the one-walk EncodeRow to the error
// texts of Schema.Validate, which it used to call first.
func TestEncodeRowErrorsAreValidates(t *testing.T) {
	s := testSchema()
	for _, r := range []Row{
		{NewInt(1)},
		{NewInt(1), NewFloat(2), NewString("x"), NewDate(3), NewInt(4)},
		{NewInt(1), NewInt(2), NewString("x"), NewDate(3)},
		{NewInt(1), NewFloat(2), NewString("x"), NewInt(3)}, // an int is not a date
		{NewInt(1), NewFloat(2), {}, NewDate(3)},
	} {
		buf, err := EncodeRow([]byte("kept"), s, r)
		if want := s.Validate(r); want == nil || err == nil || err.Error() != want.Error() || buf != nil {
			t.Fatalf("EncodeRow(%v) = (%q, %v), Validate says %v", r, buf, err, want)
		}
	}
}
