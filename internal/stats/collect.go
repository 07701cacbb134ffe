package stats

import (
	"math/bits"

	"specdb/internal/slab"
	"specdb/internal/tuple"
)

// Collector accumulates one column's Count/Distinct/Min/Max from a stream of
// values, one Add per value, holding only the column's distinct values. The
// zero value is an empty collector. The numbers are exact, not sketched: they
// feed every selectivity estimate, so every plan and every pinned simulated
// output depends on them to the last unit.
//
// Distinct counts key images: tuple.KeyBitsOf for int, date and float values
// (the 8-byte tuple.EncodeKey image as an integer, so two values count once
// exactly when their index keys are equal) and the string itself for strings.
// Min and Max are Value.Compare's choice, the first seen among values that
// compare equal — +0.0 and -0.0 are distinct to the key image and equal to
// Compare.
//
// The set of key images lives in tables taken from slab.Uint64s, and a string
// column's set in tables of strings taken from strTables: each doubling gives
// the outgrown table back, and Release gives the last one back once Stats has
// copied out the numbers, so a build's statistics pass leaves nothing behind
// for the collector and the next build's sets cost no allocation. Both sets
// hash with fixed functions, so when they grow is the same in every process.
//
// A collector from ColumnCollectors knows its column's kind from the schema
// and asks no value for its own (DESIGN.md §15, "What a value costs"), so
// only values of that kind may be added to it, as a row the schema encodes or
// decodes holds. The zero collector asks each value, so its values may mix
// numeric kinds; it then leaves the bounds to Compare alone.
type Collector struct {
	count    int64
	kind     tuple.Kind // the column's; KindInvalid asks each value
	min, max tuple.Value
	bits     bitsSet
	strs     strSet
}

// ColumnCollectors returns an empty collector for each column of s, each of
// its column's kind.
func ColumnCollectors(s *tuple.Schema) []Collector {
	cols := make([]Collector, s.Len())
	for i, c := range s.Columns {
		cols[i].kind = c.Kind
	}
	return cols
}

// Add feeds the next value of the column.
func (c *Collector) Add(v tuple.Value) {
	k := c.kind
	if k == tuple.KindInvalid {
		k = v.Kind()
	}
	c.count++
	if k == tuple.KindString {
		c.strs.add(v.Str())
	} else {
		c.bits.add(tuple.KeyBitsOf(k, v))
	}
	if c.count == 1 {
		c.min, c.max = v, v
		return
	}
	if c.inRange(v) {
		return
	}
	if v.Compare(c.min) < 0 {
		c.min = v
	}
	if v.Compare(c.max) > 0 {
		c.max = v
	}
}

// inRange reports, without Value.Compare's kind dispatch and float
// conversions, that v can replace neither bound. It may say false for a value
// that cannot (Add then asks Compare), never true for one that can: within one
// kind, v ≥ min in the kind's own order implies Compare(v, min) ≥ 0 — it is
// the order Compare uses, and a float NaN fails both tests here and so goes
// to Compare — and likewise for max. v and both bounds are of the column's
// kind; a collector that does not know it says false.
func (c *Collector) inRange(v tuple.Value) bool {
	switch c.kind {
	case tuple.KindInt, tuple.KindDate:
		return v.Int() >= c.min.Int() && v.Int() <= c.max.Int()
	case tuple.KindFloat:
		return v.Float() >= c.min.Float() && v.Float() <= c.max.Float()
	case tuple.KindString:
		return v.Str() >= c.min.Str() && v.Str() <= c.max.Str()
	}
	return false
}

// Stats returns the statistics of the values added so far. The ColumnStats
// holds numbers and the two bound values, never the set.
func (c *Collector) Stats() *ColumnStats {
	cs := &ColumnStats{Count: c.count}
	if c.count == 0 {
		return cs
	}
	cs.Distinct = int64(c.bits.len() + c.strs.len())
	cs.HasRange = true
	cs.Min, cs.Max = c.min, c.max
	return cs
}

// Release gives the sets' tables back and empties the collector, which keeps
// its kind and may then be reused. Call it once Stats has been read: nothing
// else refers to the tables, because Stats copies numbers out of them.
func (c *Collector) Release() {
	slab.Uint64s.Give(c.bits.slots)
	giveStrTable(c.strs.slots)
	*c = Collector{kind: c.kind}
}

// bitsSet is an exact set of 64-bit key images: open addressing with linear
// probing over a power-of-two table kept at most half full, doubling as it
// fills, so n adds take O(log n) tables and nothing per value. A zero slot
// is an empty slot, so the zero image — a legitimate one, tuple.KeyBitsOf of
// math.MinInt64 — is remembered beside the table instead of in it; and a
// table taken from the slab is cleared before use, since it holds its last
// owner's images.
type bitsSet struct {
	slots   []uint64
	n       int // images in slots
	hasZero bool
}

const bitsSetMinSlots = 64

func (s *bitsSet) len() int {
	if s.hasZero {
		return s.n + 1
	}
	return s.n
}

func (s *bitsSet) add(k uint64) {
	if k == 0 {
		s.hasZero = true
		return
	}
	if 2*(s.n+1) > len(s.slots) {
		s.grow()
	}
	if s.insert(k) {
		s.n++
	}
}

// insert places k unless it is already there, and reports whether it did. The
// table has a free slot, so the probe ends.
func (s *bitsSet) insert(k uint64) bool {
	mask := uint64(len(s.slots) - 1)
	// Fibonacci hashing: key images of a dense int column differ only in
	// their low bits, the multiplication spreads them over the high ones.
	for i := (k * 0x9e3779b97f4a7c15) >> 32 & mask; ; i = (i + 1) & mask {
		switch s.slots[i] {
		case k:
			return false
		case 0:
			s.slots[i] = k
			return true
		}
	}
}

// grow moves the images to a table twice the size and gives the old one
// back: the set was its only reader.
func (s *bitsSet) grow() {
	old := s.slots
	s.slots = slab.Uint64s.Take(max(bitsSetMinSlots, 2*len(old)))
	clear(s.slots)
	for _, k := range old {
		if k != 0 {
			s.insert(k)
		}
	}
	slab.Uint64s.Give(old)
}

// strTables recycles strSet's tables. Only strSet gives to it, and it gives
// each table back cleared, so a table taken from it is empty and holds no
// string that would keep a dead row's memory alive.
var strTables slab.Classes[string]

// strSet is bitsSet's counterpart for a string column: an exact set of the
// column's strings, open addressing with linear probing over a power-of-two
// table kept at most half full, doubling as it fills. Its hash is a fixed
// function of the bytes, so the tables a column grows through, and so the
// allocations a statistics pass makes, are the same in every process (a Go
// map's growth depends on the per-process hash seed: it made a build's
// allocation count differ by one between runs). The empty string is an
// empty slot, so "" is remembered beside the table instead of in it.
type strSet struct {
	slots    []string
	n        int // strings in slots
	hasEmpty bool
}

func (s *strSet) len() int {
	if s.hasEmpty {
		return s.n + 1
	}
	return s.n
}

func (s *strSet) add(v string) {
	if v == "" {
		s.hasEmpty = true
		return
	}
	if 2*(s.n+1) > len(s.slots) {
		s.grow()
	}
	if s.insert(v, strHash(v)) {
		s.n++
	}
}

// insert places v, whose hash is h, unless it is already there, and reports
// whether it did. The table has a free slot, so the probe ends.
func (s *strSet) insert(v string, h uint64) bool {
	mask := uint64(len(s.slots) - 1)
	for i := (h * 0x9e3779b97f4a7c15) >> 32 & mask; ; i = (i + 1) & mask {
		switch s.slots[i] {
		case v:
			return false
		case "":
			s.slots[i] = v
			return true
		}
	}
}

// grow moves the strings to a table twice the size and gives the old one
// back.
func (s *strSet) grow() {
	old := s.slots
	s.slots = strTables.Take(max(bitsSetMinSlots, 2*len(old)))
	for _, v := range old {
		if v != "" {
			s.insert(v, strHash(v))
		}
	}
	giveStrTable(old)
}

// giveStrTable gives a strSet's table back cleared: the set was its only
// reader, and a cleared table is what the next Take's insert probes.
func giveStrTable(table []string) {
	clear(table)
	strTables.Give(table)
}

// strHash is a fixed hash of v's bytes, eight at a time.
func strHash(v string) uint64 {
	h := uint64(len(v))
	for ; len(v) >= 8; v = v[8:] {
		w := uint64(v[0]) | uint64(v[1])<<8 | uint64(v[2])<<16 | uint64(v[3])<<24 |
			uint64(v[4])<<32 | uint64(v[5])<<40 | uint64(v[6])<<48 | uint64(v[7])<<56
		h = bits.RotateLeft64((h^w)*0x9e3779b97f4a7c15, 31)
	}
	for i := 0; i < len(v); i++ {
		h = (h ^ uint64(v[i])) * 0x100000001b3
	}
	return h ^ h>>29
}
