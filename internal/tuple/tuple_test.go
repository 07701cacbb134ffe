package tuple

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

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

func TestRowString(t *testing.T) {
	r := Row{NewInt(1), NewString("a")}
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
			if got[i].Kind() != r[i].Kind() || !got[i].Equal(r[i]) {
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
			dst[i] = numeric(c.Kind, uint64(v))
		case KindFloat:
			if len(buf[off:]) < 8 {
				return 0, fmt.Errorf("tuple: truncated float in column %q", c.Name)
			}
			dst[i] = numeric(KindFloat, binary.BigEndian.Uint64(buf[off:]))
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

// wideSchema leads with a string, so a later column is reached only by
// skipping one.
func wideSchema() *Schema {
	return NewSchema(
		Column{"tag", KindString},
		Column{"n", KindInt},
		Column{"d", KindDate},
		Column{"f", KindFloat},
		Column{"s", KindString},
	)
}

// edgeRecords are stored rows for the codec's reference tests. Encoded rows
// put integers, dates and string lengths on both sides of the 1-, 2- and
// 3-byte varint boundaries, beside the value edge cases (±2⁵³ and their
// neighbours, MinInt64, −0.0, NaN, "", date 0). Hand-made records add what
// EncodeRow never writes: overlong 2- and 3-byte varints, which
// binary.Uvarint accepts, and varints it rejects as too long.
func edgeRecords(t testing.TB) (records [][]byte, schemas []*Schema) {
	t.Helper()
	ints := []int64{0, 1, -1, 63, -64, 64, -65, 8191, -8192, 8192, -8193, 1<<20 - 1, -(1 << 20), 1 << 20, -(1 << 20) - 1,
		1<<53 - 1, 1 << 53, 1<<53 + 1, -(1 << 53) - 1, math.MaxInt64, math.MinInt64}
	floats := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1 << 53, -1.5}
	strs := []string{"", "x", strings.Repeat("a", 127), strings.Repeat("b", 128), strings.Repeat("c", 16383), strings.Repeat("d", 16384)}
	add := func(s *Schema, r Row) {
		buf, err := EncodeRow(nil, s, r)
		if err != nil {
			t.Fatal(err)
		}
		records, schemas = append(records, buf), append(schemas, s)
	}
	for i, v := range ints {
		w := ints[len(ints)-1-i]
		f, str := floats[i%len(floats)], strs[i%len(strs)]
		add(testSchema(), Row{NewInt(v), NewFloat(f), NewString(str), NewDate(w)})
		add(wideSchema(), Row{NewString(str), NewInt(w), NewDate(v), NewFloat(f), NewString(strs[(i+1)%len(strs)])})
	}
	float := binary.BigEndian.AppendUint64(nil, math.Float64bits(2.5))
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	for _, raw := range [][]byte{
		// overlong 2-byte varints: 0, 127 and a string length of 1
		cat([]byte{0x80, 0x00}, float, []byte{0x81, 0x00, 'x'}, []byte{0xff, 0x00}),
		// overlong 3-byte varints
		cat([]byte{0x80, 0x80, 0x00}, float, []byte{0x80, 0x80, 0x00}, []byte{0x81, 0x80, 0x00}),
		// eleven bytes, and ten whose last is above 1: binary.Uvarint rejects both
		cat(bytes.Repeat([]byte{0xff}, 10), []byte{0x01}, float, []byte{0}, []byte{0}),
		cat(bytes.Repeat([]byte{0xff}, 9), []byte{0x02}, float, []byte{0}, []byte{0}),
		cat([]byte{0x02}, float, bytes.Repeat([]byte{0x80}, 10), []byte{0x01}, []byte{0}),
		// a string length far past the record
		cat([]byte{0x02}, float, binary.AppendUvarint(nil, 1<<62), []byte{'y', 0}),
	} {
		records, schemas = append(records, raw), append(schemas, testSchema())
	}
	return records, schemas
}

// emptyLastString is a record of wideSchema whose last column is the empty
// string: a value with no bytes of its own, ending the record.
func emptyLastString(t testing.TB) []byte {
	t.Helper()
	buf, err := EncodeRow(nil, wideSchema(), Row{NewString("t"), NewInt(1), NewDate(2), NewFloat(3), NewString("")})
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// cuts are the lengths a reference test decodes a record at: all of them but
// those inside a long string, where nothing new happens.
func cuts(buf []byte) []int {
	var out []int
	for cut := 0; cut <= len(buf); cut++ {
		if cut <= 40 || cut >= len(buf)-40 {
			out = append(out, cut)
		}
	}
	return out
}

// sameValue compares two values by kind and payload, floats by their bits.
func sameValue(a, b Value) bool {
	return a.Kind() == b.Kind() && a.word == b.word && a.Str() == b.Str()
}

// sameError reports whether two errors are both nil or have the same text.
func sameError(a, b error) bool {
	return (a == nil) == (b == nil) && (a == nil || a.Error() == b.Error())
}

// TestDecodeRowIntoMatchesReference decodes the edge records whole and cut at
// every byte, and wants the reference's values, byte counts and errors — the
// errors name the column, so the texts are compared.
func TestDecodeRowIntoMatchesReference(t *testing.T) {
	records, schemas := edgeRecords(t)
	for r, buf := range records {
		s := schemas[r]
		got, want := make(Row, s.Len()), make(Row, s.Len())
		for _, cut := range cuts(buf) {
			gn, gerr := DecodeRowInto(got, buf[:cut], s)
			wn, werr := decodeRowIntoReference(want, buf[:cut], s)
			if gn != wn || !sameError(gerr, werr) {
				t.Fatalf("record %d cut at %d/%d: got (%d, %v), reference (%d, %v)", r, cut, len(buf), gn, gerr, wn, werr)
			}
			if gerr != nil {
				continue
			}
			for c := range got {
				if !sameValue(got[c], want[c]) {
					t.Fatalf("record %d column %d: got %v, reference %v", r, c, got[c], want[c])
				}
			}
		}
	}
	if _, err := DecodeRowInto(make(Row, 2), nil, testSchema()); err == nil || err.Error() != "tuple: decode into 2 values, schema arity 4" {
		t.Fatalf("arity error: %v", err)
	}
}

// decodeColumnReference is DecodeColumn by way of the reference decoder: the
// row of the schema's first ord+1 columns, and its last value.
func decodeColumnReference(buf []byte, s *Schema, ord int) (Value, int, error) {
	prefix := NewSchema(s.Columns[:ord+1]...)
	row := make(Row, ord+1)
	n, err := decodeRowIntoReference(row, buf, prefix)
	if err != nil {
		return Value{}, 0, err
	}
	return row[ord], n, nil
}

// TestDecodeColumnMatchesReference decodes every column of every edge record,
// whole and cut at every byte, and wants what the reference decoder makes of
// the columns up to it: the value, the bytes consumed through it, and the
// error text. A string it returns reads the record's own bytes.
func TestDecodeColumnMatchesReference(t *testing.T) {
	records, schemas := edgeRecords(t)
	aliased := 0
	for r, buf := range records {
		s := schemas[r]
		for _, cut := range cuts(buf) {
			for ord := range s.Len() {
				gv, gn, gerr := DecodeColumn(buf[:cut], s, ord)
				wv, wn, werr := decodeColumnReference(buf[:cut], s, ord)
				if gn != wn || !sameError(gerr, werr) || !sameValue(gv, wv) {
					t.Fatalf("record %d cut at %d/%d, column %d: got (%v, %d, %v), reference (%v, %d, %v)",
						r, cut, len(buf), ord, gv, gn, gerr, wv, wn, werr)
				}
				if str := gv.Str(); gerr == nil && str != "" {
					if unsafe.StringData(str) != &buf[gn-len(str)] {
						t.Fatalf("record %d column %d: the string is a copy, not the record's bytes", r, ord)
					}
					aliased++
				}
			}
		}
	}
	if aliased == 0 {
		t.Fatal("no string column was decoded")
	}
}

// FuzzDecodeColumn holds DecodeRowInto and DecodeColumn to the reference
// decoder on arbitrary bytes, for both test schemas and every column: the
// same values, byte counts and error texts, and no panic. Whenever
// DecodeRowInto succeeds, DecodeColumn returns its columns.
func FuzzDecodeColumn(f *testing.F) {
	records, schemas := edgeRecords(f)
	for r, buf := range records {
		wide := schemas[r].Len() == wideSchema().Len()
		f.Add(buf, uint8(r), wide)
	}
	f.Add(emptyLastString(f), uint8(4), true)
	narrow, wide := testSchema(), wideSchema()
	f.Fuzz(func(t *testing.T, buf []byte, ord uint8, useWide bool) {
		s := narrow
		if useWide {
			s = wide
		}
		row, want := make(Row, s.Len()), make(Row, s.Len())
		n, err := DecodeRowInto(row, buf, s)
		wn, werr := decodeRowIntoReference(want, buf, s)
		if n != wn || !sameError(err, werr) {
			t.Fatalf("DecodeRowInto: (%d, %v), reference (%d, %v)", n, err, wn, werr)
		}
		o := int(ord) % s.Len()
		v, m, cerr := DecodeColumn(buf, s, o)
		wv, wm, wcerr := decodeColumnReference(buf, s, o)
		if m != wm || !sameError(cerr, wcerr) || !sameValue(v, wv) {
			t.Fatalf("DecodeColumn(%d): (%v, %d, %v), reference (%v, %d, %v)", o, v, m, cerr, wv, wm, wcerr)
		}
		if err != nil {
			return
		}
		for c := range row {
			if !sameValue(row[c], want[c]) {
				t.Fatalf("DecodeRowInto column %d: %v, reference %v", c, row[c], want[c])
			}
		}
		if cerr != nil || !sameValue(v, row[o]) {
			t.Fatalf("DecodeColumn(%d) = (%v, %v) where DecodeRowInto decoded %v", o, v, cerr, row[o])
		}
		for c := range row {
			if row[c].Kind() != s.Columns[c].Kind {
				t.Fatalf("DecodeRowInto column %d is a %v, the schema's a %v", c, row[c].Kind(), s.Columns[c].Kind)
			}
		}
	})
}

// TestColSet pins the set arithmetic the executor's pruning rests on, past
// the 64th column too: naming one makes the set AllCols, and a set that holds
// every column of its schema reads as AllCols over it.
func TestColSet(t *testing.T) {
	c := ColsOf(1, 3, 4)
	if !c.Has(3) || c.Has(2) || c.Has(70) || c.Count(5) != 3 || c.Count(4) != 2 || c.Rank(4) != 2 || c.bound(10) != 5 {
		t.Fatalf("%b: Has, Count, Rank or bound wrong", c)
	}
	if left, right := c.Split(3); left != ColsOf(1) || right != ColsOf(0, 1) {
		t.Fatalf("Split(3) = %b, %b", left, right)
	}
	if c.With(64) != AllCols || ColsOf(0, 1, 2).Over(3) != AllCols || c.Over(5) != c {
		t.Fatal("With past 64 or Over wrong")
	}
	if !AllCols.Has(200) || AllCols.Count(70) != 70 || AllCols.Rank(66) != 66 || AllCols.bound(70) != 70 {
		t.Fatal("AllCols is not every column")
	}
	if l, r := AllCols.Split(40); l != AllCols || r != AllCols {
		t.Fatal("AllCols splits into less than AllCols")
	}
	// A set over a 70-column schema that reads column 3 only.
	if wide := ColsOf(3); wide.Count(70) != 1 || wide.bound(70) != 4 || wide.Over(70) != wide {
		t.Fatalf("%b over 70 columns: Count %d, bound %d", wide, wide.Count(70), wide.bound(70))
	}
}

// FuzzDecodeLive holds DecodeLive to DecodeRowInto on the columns it decodes:
// for any set of live columns, in place and through a projection that may
// repeat a column and run against storage order, it consumes what the
// reference consumes up to the last live column, fails with its error there,
// and otherwise yields the reference's values wherever the live columns go.
func FuzzDecodeLive(f *testing.F) {
	records, schemas := edgeRecords(f)
	for r, buf := range records {
		wide := schemas[r].Len() == wideSchema().Len()
		f.Add(buf, uint8(r), uint16(r*7919), wide)
	}
	f.Add(emptyLastString(f), uint8(0x1f), uint16(0), true)
	f.Add(emptyLastString(f), uint8(0x10), uint16(0), true)
	narrow, wide := testSchema(), wideSchema()
	f.Fuzz(func(t *testing.T, buf []byte, mask uint8, order uint16, useWide bool) {
		s := narrow
		if useWide {
			s = wide
		}
		live := ColSet(mask) & (1<<s.Len() - 1)
		// The projection: every live column, in an order the fuzzer picks,
		// and the first of them once more.
		var ords []int
		for i := range s.Len() {
			if live.Has(i) {
				ords = append(ords, i)
			}
		}
		for i := len(ords) - 1; i > 0; i-- {
			k := int(order) % (i + 1)
			ords[i], ords[k] = ords[k], ords[i]
			order /= uint16(i + 1)
		}
		if len(ords) > 0 {
			ords = append(ords, ords[0])
		}
		// The reference: the row of the schema's columns up to the last live
		// one, decoded whole.
		end := 0
		for i := range s.Len() {
			if live.Has(i) {
				end = i + 1
			}
		}
		want := make(Row, end)
		wn, werr := decodeRowIntoReference(want, buf, NewSchema(s.Columns[:end]...))
		row, proj := make(Row, s.Len()), make(Row, len(ords))
		n, err := DecodeLive(row, buf, s, live, nil)
		pn, perr := DecodeLive(proj, buf, s, live, ords)
		if n != wn || !sameError(err, werr) || pn != wn || !sameError(perr, werr) {
			t.Fatalf("live %b: in place (%d, %v), projected (%d, %v), reference (%d, %v)", live, n, err, pn, perr, wn, werr)
		}
		if werr != nil {
			return
		}
		for i := range end {
			if live.Has(i) && !sameValue(row[i], want[i]) {
				t.Fatalf("live %b column %d: %v, reference %v", live, i, row[i], want[i])
			}
		}
		for p, o := range ords {
			if !sameValue(proj[p], want[o]) {
				t.Fatalf("live %b, ords %v: place %d holds %v, reference column %d %v", live, ords, p, proj[p], o, want[o])
			}
			if proj[p].Kind() != s.Columns[o].Kind {
				t.Fatalf("live %b, ords %v: place %d is a %v, column %d a %v", live, ords, p, proj[p].Kind(), o, s.Columns[o].Kind)
			}
		}
	})
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
