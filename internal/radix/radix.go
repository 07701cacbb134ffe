// Package radix sorts 64-bit key images — tuple.KeyBitsOf's order-preserving
// integers — in linear time. Set-up sorts every indexed column and every
// histogram column once (DESIGN.md §15, "What a set-up costs"), and a
// comparison sort over byte slices or floats was the larger part of it.
package radix

import "specdb/internal/slab"

// Sort orders keys ascending by unsigned value with a stable radix sort, least
// significant byte first, and moves vals with them: vals is nil or as long as
// keys, and vals[i] ends beside the key it started beside. Stable means keys
// that are equal keep their order, so a caller whose input is ordered by a
// second field gets (key, second field) order.
//
// One pass counts every byte position at once. A byte position on which every
// key agrees is skipped, so a column of small integers costs two or three
// passes, not eight; input that is already ascending is left as it is after
// that one counting pass. The ping-pong buffers come from slab.Uint64s and go
// back before Sort returns.
func Sort(keys, vals []uint64) {
	n := len(keys)
	if ascending(keys) {
		return
	}
	var counts [8][256]int
	for _, k := range keys {
		counts[0][byte(k)]++
		counts[1][byte(k>>8)]++
		counts[2][byte(k>>16)]++
		counts[3][byte(k>>24)]++
		counts[4][byte(k>>32)]++
		counts[5][byte(k>>40)]++
		counts[6][byte(k>>48)]++
		counts[7][byte(k>>56)]++
	}
	first := keys[0]
	bufK, bufV := slab.Uint64s.Take(n), []uint64(nil)
	if vals != nil {
		bufV = slab.Uint64s.Take(n)
	}
	src, dst := keys, bufK
	srcV, dstV := vals, bufV
	for b := range counts {
		c := &counts[b]
		shift := 8 * b
		if c[byte(first>>shift)] == n {
			continue // every key has this byte: the pass would move nothing
		}
		for d, sum := 0, 0; d < len(c); d++ {
			c[d], sum = sum, sum+c[d]
		}
		if srcV == nil {
			for _, k := range src {
				d := byte(k >> shift)
				dst[c[d]] = k
				c[d]++
			}
		} else {
			for i, k := range src {
				d := byte(k >> shift)
				dst[c[d]], dstV[c[d]] = k, srcV[i]
				c[d]++
			}
		}
		src, dst = dst, src
		srcV, dstV = dstV, srcV
	}
	if &src[0] != &keys[0] { // an odd number of passes ran
		copy(keys, src)
		copy(vals, srcV)
	}
	slab.Uint64s.Give(bufK)
	if bufV != nil {
		slab.Uint64s.Give(bufV)
	}
}

func ascending(keys []uint64) bool {
	for i := 1; i < len(keys); i++ {
		if keys[i-1] > keys[i] {
			return false
		}
	}
	return true
}
