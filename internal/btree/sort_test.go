package btree

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"specdb/internal/radix"
	"specdb/internal/sim"
	"specdb/internal/storage"
	"specdb/internal/tuple"
)

// sortInput is one FuzzSortEntries input written out: keys in input order,
// with RIDs ascending (CreateIndex's heap-scan order) or taken from rids.
type sortInput struct {
	keys [][]byte
	rids []byte // nil: ascending RIDs
}

// Encoding of a fuzz input, decoded by decodeEntries: a flags byte (bit 0:
// RIDs come from the stream, else they ascend), then per entry a width byte —
// 0xE_ repeats the previous key, 0xF_ gives a key of width _ (0..15) whose
// bytes follow, anything else an 8-byte key whose bytes follow — and, when
// RIDs come from the stream, one byte whose nibbles are the RID's page and
// slot. Most bytes a mutator writes make 8-byte keys, so most inputs reach
// the radix path; a 0xF_ width or a RID out of order reaches the fallback.
func (in sortInput) encode() []byte {
	var out []byte
	if in.rids != nil {
		out = append(out, 1)
	} else {
		out = append(out, 0)
	}
	for i, k := range in.keys {
		if len(k) == 8 {
			out = append(out, 0)
		} else {
			out = append(out, 0xF0|byte(len(k)))
		}
		out = append(out, k...)
		if in.rids != nil {
			out = append(out, in.rids[i])
		}
	}
	return out
}

func decodeEntries(data []byte) []Entry {
	if len(data) == 0 {
		return nil
	}
	scrambled := data[0]&1 != 0
	data = data[1:]
	var entries []Entry
	var prev []byte
	for len(data) > 0 && len(entries) < 1024 {
		w := data[0]
		data = data[1:]
		var key []byte
		switch {
		case w&0xF0 == 0xE0 && prev != nil:
			key = bytes.Clone(prev)
		default:
			n := 8
			if w&0xF0 == 0xF0 {
				n = int(w & 0x0F)
			}
			key = make([]byte, n) // short input pads with zero bytes
			data = data[copy(key, data):]
		}
		rid := storage.RID{Page: int32(len(entries) / 3), Slot: int32(len(entries) % 3)}
		if scrambled {
			r := byte(0)
			if len(data) > 0 {
				r, data = data[0], data[1:]
			}
			rid = storage.RID{Page: int32(r >> 4), Slot: int32(r & 0x0F)}
		}
		entries = append(entries, Entry{Key: key, RID: rid})
		prev = key
	}
	return entries
}

func keysOf(vs ...tuple.Value) [][]byte {
	out := make([][]byte, len(vs))
	for i, v := range vs {
		out[i] = tuple.EncodeKey(nil, v)
	}
	return out
}

// sortSeeds are FuzzSortEntries' seeds: the edge images, and each fallback.
func sortSeeds() []sortInput {
	f := tuple.NewFloat
	i := tuple.NewInt
	edges := keysOf(i(math.MinInt64), i(-1), i(0), i(math.MaxInt64), f(0), f(math.Copysign(0, -1)),
		f(math.Inf(1)), f(math.Inf(-1)), f(math.NaN()), f(-math.NaN()), f(math.SmallestNonzeroFloat64), f(-1.5))
	var dups, same, asc, desc [][]byte
	for k := range 40 {
		dups = append(dups, keysOf(i(int64(k*7%5)))...)
		same = append(same, keysOf(f(2.5))...)
		asc = append(asc, keysOf(i(int64(k*1000)))...)
		desc = append(desc, keysOf(i(int64(4e9-k*1e8)))...)
	}
	r := sim.NewRand(3)
	var wide, small [][]byte // random images: every byte position moves, or the low two
	for range 300 {
		wide = append(wide, keysOf(i(int64(r.Uint64())))...)
		small = append(small, keysOf(i(int64(r.Intn(1<<16))))...)
	}
	shuffled := make([]byte, len(dups))
	for k := range shuffled {
		shuffled[k] = byte(r.Uint64())
	}
	strs := keysOf(tuple.NewString("b"), tuple.NewString(""), tuple.NewString("ab"), tuple.NewString("abcdefgh"), tuple.NewString("a"))
	mixed := append(keysOf(i(5), i(3)), []byte("abc"), tuple.EncodeKey(nil, i(4)))
	return []sortInput{
		{keys: edges}, {keys: slices.Concat(edges, edges)}, {keys: dups}, {keys: same},
		{keys: asc}, {keys: desc}, {keys: wide}, {keys: small},
		{keys: dups, rids: shuffled}, {keys: strs}, {keys: mixed},
	}
}

// FuzzSortEntries holds the two ways a build orders its entries to
// slices.SortFunc with compareEntries: SortEntries, and — for 8-byte keys in
// ascending RID order, a numeric column read in heap order — a radix sort of
// the keys as integers with the packed RIDs riding along, which is what
// stats.Images hands BulkLoadImages. It also holds BulkLoad's integer order
// check to compareEntries.
func FuzzSortEntries(f *testing.F) {
	for _, s := range sortSeeds() {
		f.Add(s.encode())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		entries := decodeEntries(data)
		got, want := slices.Clone(entries), slices.Clone(entries)
		SortEntries(got)
		slices.SortFunc(want, compareEntries)
		for i := range want {
			if !bytes.Equal(got[i].Key, want[i].Key) || got[i].RID != want[i].RID {
				t.Fatalf("entry %d of %d: got (%x, %v), want (%x, %v)", i, len(want), got[i].Key, got[i].RID, want[i].Key, want[i].RID)
			}
		}
		if imageSortable(entries) {
			keys, rids := make([]uint64, len(entries)), make([]uint64, len(entries))
			for i, e := range entries {
				keys[i], rids[i] = binary.BigEndian.Uint64(e.Key), e.RID.Bits()
			}
			radix.Sort(keys, rids)
			for i := range want {
				if keys[i] != binary.BigEndian.Uint64(want[i].Key) || storage.RIDOfBits(rids[i]) != want[i].RID {
					t.Fatalf("image %d of %d: got (%016x, %v), want (%x, %v)", i, len(want), keys[i], storage.RIDOfBits(rids[i]), want[i].Key, want[i].RID)
				}
			}
		}
		for i := 1; i < len(entries); i++ {
			a, b := entries[i-1], entries[i]
			if entryOrder(a, b) != compareEntries(a, b) {
				t.Fatalf("entryOrder(%x %v, %x %v) = %d, compareEntries %d", a.Key, a.RID, b.Key, b.RID, entryOrder(a, b), compareEntries(a, b))
			}
		}
	})
}

// imageSortable reports whether every key is 8 bytes and the RIDs ascend:
// whether the entries could be a numeric column's images in heap order.
func imageSortable(entries []Entry) bool {
	for i, e := range entries {
		if len(e.Key) != 8 || i > 0 && compareRID(entries[i-1].RID, e.RID) > 0 {
			return false
		}
	}
	return true
}

// TestSortSeedsTakeBothPaths keeps FuzzSortEntries' seeds honest: the image
// sort and the entries-only inputs must each see some of them.
func TestSortSeedsTakeBothPaths(t *testing.T) {
	radix, fallback := 0, 0
	for _, s := range sortSeeds() {
		if imageSortable(decodeEntries(s.encode())) {
			radix++
		} else {
			fallback++
		}
	}
	if radix < 8 || fallback < 3 {
		t.Fatalf("%d seeds take the radix path and %d the fallback, want 8 and 3", radix, fallback)
	}
}
