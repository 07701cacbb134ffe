package tuple

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Row codec: a compact, schema-driven binary format used by slotted pages.
// Layout per value: ints/dates are varints (zig-zag), floats are 8 fixed
// bytes, strings are uvarint length + bytes. The schema supplies kinds, so no
// per-value tags are stored.

// EncodeRow appends the encoding of r (which must match schema s) to dst and
// returns the extended slice.
func EncodeRow(dst []byte, s *Schema, r Row) ([]byte, error) {
	if len(r) != len(s.kinds) {
		return nil, s.Validate(r)
	}
	for i, v := range r {
		k := s.kinds[i]
		if !v.Is(k) {
			return nil, s.Validate(r) // names the column
		}
		switch k {
		case KindInt, KindDate:
			dst = binary.AppendVarint(dst, v.Int())
		case KindFloat:
			dst = binary.BigEndian.AppendUint64(dst, v.word)
		case KindString:
			dst = binary.AppendUvarint(dst, v.word)
			dst = append(dst, v.str()...)
		default:
			return nil, fmt.Errorf("tuple: cannot encode kind %v", k)
		}
	}
	return dst, nil
}

// DecodeRow decodes one row of schema s from buf into a fresh row. It returns
// the row and the number of bytes consumed.
func DecodeRow(buf []byte, s *Schema) (Row, int, error) {
	r := make(Row, s.Len())
	n, err := DecodeRowInto(r, buf, s)
	if err != nil {
		return nil, 0, err
	}
	return r, n, nil
}

// DecodeRowInto decodes one row of schema s from buf into dst, which must
// hold s.Len() values, and returns the number of bytes consumed. It is
// DecodeLive with every column live: dst is owned by the caller and
// overwritten on every call, so only string columns allocate (their bytes are
// copied out of buf, which usually aliases a pinned page).
func DecodeRowInto(dst Row, buf []byte, s *Schema) (int, error) {
	if len(dst) != len(s.kinds) {
		return 0, fmt.Errorf("tuple: decode into %d values, schema arity %d", len(dst), len(s.kinds))
	}
	return DecodeLive(dst, buf, s, AllCols, nil)
}

// DecodeLive decodes the columns in live of the row of schema s stored in buf
// and returns the offset just past the last of them. With ords nil, column i
// goes to dst[i], and dst holds s.Len() values; otherwise dst is a projection
// of the row, dst[p] getting column ords[p], and live must hold every ordinal
// in ords. The walk stops after the last live column, so it fails where, and
// with the error, DecodeRowInto fails on the same bytes up to that column.
// What dst holds in the places of columns outside live is unspecified: a dead
// string is skipped, since its copy is what it would cost, and a dead number
// may be written, since testing for it costs more than the store. Strings are
// copied out of buf, once however many places of dst they go to.
func DecodeLive(dst Row, buf []byte, s *Schema, live ColSet, ords []int) (int, error) {
	off := 0
	for i, k := range s.kinds[:live.bound(len(s.kinds))] {
		switch k {
		case KindFloat:
			if len(buf)-off < 8 {
				return 0, truncated("float", s, i)
			}
			put(dst, ords, i, numeric(KindFloat, binary.BigEndian.Uint64(buf[off:])))
			off += 8
			continue
		case KindInt, KindDate, KindString:
		default:
			return 0, fmt.Errorf("tuple: cannot decode kind %v", k)
		}
		// Ints, dates and string lengths are varints, nearly all of one or two
		// bytes, read inline. The rest take binary.Uvarint, so what it rejects
		// is rejected here too (binary.Varint is it plus the zig-zag).
		var ux uint64
		if off < len(buf) && buf[off] < 0x80 {
			ux = uint64(buf[off])
			off++
		} else if off+1 < len(buf) && buf[off+1] < 0x80 {
			ux = uint64(buf[off]&0x7f) | uint64(buf[off+1])<<7
			off += 2
		} else {
			var n int
			if ux, n = binary.Uvarint(buf[off:]); n <= 0 {
				return 0, truncatedVarint(s, i)
			}
			off += n
		}
		if k != KindString {
			put(dst, ords, i, numeric(k, ux>>1^-(ux&1))) // zig-zag
			continue
		}
		if uint64(len(buf)-off) < ux {
			return 0, truncated("string", s, i)
		}
		if live.Has(i) {
			put(dst, ords, i, NewString(string(buf[off:off+int(ux)])))
		}
		off += int(ux)
	}
	return off, nil
}

// put stores column i's value v where DecodeLive's ords send it.
func put(dst Row, ords []int, i int, v Value) {
	if ords == nil {
		dst[i] = v
		return
	}
	for p, o := range ords {
		if o == i {
			dst[p] = v
		}
	}
}

// DecodeColumn decodes column ord of the row of schema s stored in buf and
// returns it with the offset just past it. The columns before ord are skipped,
// not decoded, and those after it are not read. A string value aliases buf
// instead of copying it: it is valid only while buf is, so a caller tests it
// or looks it up and then drops it, and never keeps it. Up to column ord it
// fails where, and with the error, DecodeRowInto fails on the same bytes. ord
// must be a column of s.
func DecodeColumn(buf []byte, s *Schema, ord int) (Value, int, error) {
	off := 0
	for i, k := range s.kinds[:ord+1] {
		switch k {
		case KindFloat:
			if len(buf)-off < 8 {
				return Value{}, 0, truncated("float", s, i)
			}
			off += 8
			if i == ord {
				return numeric(KindFloat, binary.BigEndian.Uint64(buf[off-8:])), off, nil
			}
			continue
		case KindInt, KindDate, KindString:
		default:
			return Value{}, 0, fmt.Errorf("tuple: cannot decode kind %v", k)
		}
		// DecodeLive's varint read.
		var ux uint64
		if off < len(buf) && buf[off] < 0x80 {
			ux = uint64(buf[off])
			off++
		} else if off+1 < len(buf) && buf[off+1] < 0x80 {
			ux = uint64(buf[off]&0x7f) | uint64(buf[off+1])<<7
			off += 2
		} else {
			var n int
			if ux, n = binary.Uvarint(buf[off:]); n <= 0 {
				return Value{}, 0, truncatedVarint(s, i)
			}
			off += n
		}
		if k != KindString {
			if i == ord {
				return numeric(k, ux>>1^-(ux&1)), off, nil
			}
			continue
		}
		if uint64(len(buf)-off) < ux {
			return Value{}, 0, truncated("string", s, i)
		}
		off += int(ux)
		if i == ord {
			return aliasString(buf[off-int(ux) : off]), off, nil
		}
	}
	// invariant: callers pass an ordinal of s, and the loop returns there.
	panic(fmt.Sprintf("tuple: no column %d in a schema of %d", ord, len(s.kinds)))
}

// truncated is the error for a value of column i that buf ends inside.
func truncated(what string, s *Schema, i int) error {
	return fmt.Errorf("tuple: truncated %s in column %q", what, s.Columns[i].Name)
}

// truncatedVarint is the error for a varint of column i that buf ends inside,
// or that binary.Uvarint rejects as too long.
func truncatedVarint(s *Schema, i int) error {
	if s.kinds[i] == KindString {
		return truncated("string length", s, i)
	}
	return truncated("varint", s, i)
}

// EncodedSize reports the encoded length of r under schema s without
// allocating. Used by the page layer to decide whether a row fits.
func EncodedSize(s *Schema, r Row) int {
	size := 0
	var scratch [binary.MaxVarintLen64]byte
	for i, v := range r {
		switch s.kinds[i] {
		case KindInt, KindDate:
			size += binary.PutVarint(scratch[:], v.Int())
		case KindFloat:
			size += 8
		case KindString:
			size += binary.PutUvarint(scratch[:], v.word) + int(v.word)
		}
	}
	return size
}

// EncodeKey produces an order-preserving byte encoding of a single value:
// byte-wise comparison of encodings matches Value.Compare. Used as B+-tree
// key material.
//
// Ints/dates: offset-binary (flip sign bit) big-endian 8 bytes.
// Floats: IEEE bits with sign-aware flipping.
// Strings: raw bytes (memcmp order equals lexical order for UTF-8).
func EncodeKey(dst []byte, v Value) []byte { return EncodeKeyOf(dst, v.Kind(), v) }

// EncodeKeyOf is EncodeKey of a value of kind k, the kind of its column.
func EncodeKeyOf(dst []byte, k Kind, v Value) []byte {
	switch k {
	case KindInt, KindDate, KindFloat:
		return binary.BigEndian.AppendUint64(dst, KeyBitsOf(k, v))
	case KindString:
		return append(dst, v.str()...)
	default:
		// Programmer invariant: index keys are typed by the catalog, and
		// every kind the catalog can produce is handled above.
		panic("tuple: cannot key-encode kind " + k.String())
	}
}

// KeySizeOf is the number of bytes EncodeKeyOf appends for v of kind k.
func KeySizeOf(k Kind, v Value) int {
	if k == KindString {
		return int(v.word)
	}
	return 8
}

// KeyBitsOf is the 8-byte EncodeKey image of an int, date or float value v of
// kind k as an integer: unsigned comparison of two images matches
// Value.Compare, and two values of one kind have equal images exactly when
// their encodings are equal, which is what lets the hash join key on it. k is
// the kind of v's column: a loop over a column's values takes it from the
// schema once instead of asking each value (DESIGN.md §15, "What a value
// costs").
func KeyBitsOf(k Kind, v Value) uint64 {
	switch k {
	case KindInt, KindDate:
		return v.word ^ (1 << 63)
	case KindFloat:
		bits := v.word
		if bits&(1<<63) != 0 {
			return ^bits // negative: flip all
		}
		return bits | 1<<63 // positive: flip sign
	default:
		// invariant: callers select on the column kind first; strings have no
		// fixed-width image.
		panic("tuple: no 8-byte key image for kind " + k.String())
	}
}

// ValueOfKeyBits is the value of kind k whose KeyBitsOf image is u: the
// inverse of KeyBitsOf, so statistics read off a sorted column of images give
// back the column's own values.
func ValueOfKeyBits(k Kind, u uint64) Value {
	switch k {
	case KindInt, KindDate:
		return numeric(k, u^(1<<63))
	case KindFloat:
		return NewFloat(FloatOfKeyBits(u))
	default:
		// invariant: as KeyBitsOf, callers select on the column kind first.
		panic("tuple: no value of kind " + k.String() + " has an 8-byte key image")
	}
}

// FloatOfKeyBits is the float whose KeyBitsOf image is u: the inverse of
// KeyBitsOf on floats.
func FloatOfKeyBits(u uint64) float64 {
	if u&(1<<63) != 0 {
		return math.Float64frombits(u &^ (1 << 63)) // positive: sign flipped
	}
	return math.Float64frombits(^u) // negative: all flipped
}
