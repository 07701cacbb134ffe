// Package slab recycles slices whose owner knows they are dead: a hash join's
// build side at its Close, a statistics set that has doubled or whose counts
// have been read, a page the disk freed, a frame buffer that left the buffer
// pool, a table's gathered columns once its preparation is built. Every site
// that gives memory back says, beside its Give, why nothing can still reach
// it (DESIGN.md §15, "Slabs"); a slice given back while something still
// reads it is read by the next Take's owner, silently.
//
// This file is the only non-test file that may name sync.Pool
// (scripts/lint.sh): what a pool keeps must be memory the collector may drop,
// and one mechanism keeps that rule in one place.
package slab

import (
	"math/bits"
	"sync"
)

// Classes recycles []T by capacity, one sync.Pool per power of two. The pools
// are per P, so statements running at once share no lock, and they belong to
// the collector: an item no one took for two collections is freed with what
// it points to, so a Classes holds no memory a workload is not reusing, and
// there is nothing to size or tune. The zero value is ready to use.
type Classes[T any] struct {
	class [bits.UintSize]sync.Pool // *[]T of capacity at least 1<<i in class[i]
	// boxes holds empty *[]T: a slice travels through a pool in a box, and
	// reusing the boxes keeps Give from allocating one each time.
	boxes sync.Pool
}

// The classes more than one package gives to and takes from.
var (
	// Bytes holds page images — the disk's freed pages and the buffer pool's
	// departing frame buffers, which serve each other's next page — and
	// string index builds' key chunks.
	Bytes Classes[byte]
	// Uint64s holds statistics sets, hash-join key images and the key
	// images (with their RIDs) a column's preparation sorts.
	Uint64s Classes[uint64]
)

// Take returns a slice of length n ≥ 1 whose capacity is at least n rounded
// up to a power of two. A recycled slice holds whatever its last owner left
// in it: the caller writes every element it reads, or clears it.
func (p *Classes[T]) Take(n int) []T {
	c := bits.Len(uint(n - 1))
	b, _ := p.class[c].Get().(*[]T)
	if b == nil {
		return make([]T, n, 1<<c)
	}
	s := (*b)[:n]
	*b = nil
	p.boxes.Put(b)
	return s
}

// Give hands s back for a later Take. Its capacity places it: a slice of
// capacity c serves Takes of up to the largest power of two not above c, so a
// slice append grew may be given too. A slice of capacity 0 is dropped. The
// caller must not touch s, or any slice sharing its array, afterwards.
func (p *Classes[T]) Give(s []T) {
	if cap(s) == 0 {
		return
	}
	b, _ := p.boxes.Get().(*[]T)
	if b == nil {
		b = new([]T)
	}
	*b = s
	p.class[bits.Len(uint(cap(s)))-1].Put(b)
}
