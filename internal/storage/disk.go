// Package storage implements the on-"disk" layer of the engine: a page-based
// disk manager, slotted pages, and heap files. The disk is an in-memory byte
// store with physical-I/O counters; actual latency is accounted by the buffer
// pool against a sim.Meter, keeping every run deterministic (DESIGN.md §1).
package storage

import (
	"fmt"
	"sync"

	"specdb/internal/slab"
)

// PageID identifies a disk page. Zero is never a valid page, so PageID 0 can
// mean "none".
type PageID int64

// Disk is the page-store contract the buffer pool (and everything above it)
// depends on. *DiskManager is the real implementation; fault.Disk wraps any
// Disk to inject deterministic I/O errors between the pool and the store.
type Disk interface {
	PageSize() int
	Allocate() PageID
	Read(id PageID, buf []byte) error
	Write(id PageID, buf []byte) error
	Free(id PageID) error
	Allocated() int
	Stats() (reads, writes int64)
}

// DefaultPageSize matches the 8 KB pages of the paper's testbed DBMS.
const DefaultPageSize = 8192

// pageAlloc is the PageID allocator both disks embed: the most recently freed
// ID if there is one, else the next never-used one. Reuse keeps Allocated() —
// and the data-file footprint of a durable backend — stable across
// speculate/GC cycles instead of growing monotonically; LIFO order keeps
// allocation deterministic for equal operation sequences. It knows nothing of
// which pages are live: its owner checks that before release and after claim.
type pageAlloc struct {
	next PageID   // lowest ID never handed out; starts at 1
	free []PageID // LIFO stack of reusable IDs
}

// take hands out an ID.
func (a *pageAlloc) take() PageID {
	if n := len(a.free); n > 0 {
		id := a.free[n-1]
		a.free = a.free[:n-1]
		return id
	}
	id := a.next
	a.next++
	return id
}

// release queues id for reuse.
func (a *pageAlloc) release(id PageID) { a.free = append(a.free, id) }

// claim hands out the specific id, as WAL replay must, and reports whether it
// could: id has to be the next unused one or on the free list.
func (a *pageAlloc) claim(id PageID) bool {
	if id == a.next {
		a.next++
		return true
	}
	for i := len(a.free) - 1; i >= 0; i-- {
		if a.free[i] == id {
			a.free = append(a.free[:i], a.free[i+1:]...)
			return true
		}
	}
	return false
}

// DiskManager is the simulated disk: a growable array of fixed-size pages
// with allocate/read/write/free and physical I/O counters. It is safe for
// concurrent use; each operation is atomic under an internal lock.
type DiskManager struct {
	mu       sync.Mutex
	pageSize int
	pages    map[PageID][]byte
	pageAlloc

	reads  int64
	writes int64
}

// NewDiskManager returns an empty disk with the given page size (0 means
// DefaultPageSize).
func NewDiskManager(pageSize int) *DiskManager {
	if pageSize == 0 {
		pageSize = DefaultPageSize
	}
	if pageSize < 64 {
		// Programmer invariant, not input validation: the page size is chosen
		// by the constructing code, never by user input or I/O, and a
		// sub-64-byte page cannot hold even a slotted-page header.
		panic("storage: page size too small")
	}
	return &DiskManager{
		pageSize:  pageSize,
		pages:     make(map[PageID][]byte),
		pageAlloc: pageAlloc{next: 1},
	}
}

// PageSize reports the size of every page on this disk.
func (d *DiskManager) PageSize() int { return d.pageSize }

// Allocate reserves a zeroed page and returns its ID, reusing the most
// recently freed page when one exists. The page image comes from slab.Bytes,
// so it is cleared: a freed page's or a departed frame's bytes are still in
// it.
func (d *DiskManager) Allocate() PageID {
	d.mu.Lock()
	defer d.mu.Unlock()
	id := d.take()
	p := slab.Bytes.Take(d.pageSize)
	clear(p)
	d.pages[id] = p
	return id
}

// Read copies page id into buf (which must be PageSize bytes).
func (d *DiskManager) Read(id PageID, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	p, ok := d.pages[id]
	if !ok {
		return fmt.Errorf("storage: read of unallocated page %d", id)
	}
	if len(buf) != d.pageSize {
		return fmt.Errorf("storage: read buffer is %d bytes, want %d", len(buf), d.pageSize)
	}
	copy(buf, p)
	d.reads++
	return nil
}

// Write stores buf (PageSize bytes) as the content of page id.
func (d *DiskManager) Write(id PageID, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	p, ok := d.pages[id]
	if !ok {
		return fmt.Errorf("storage: write to unallocated page %d", id)
	}
	if len(buf) != d.pageSize {
		return fmt.Errorf("storage: write buffer is %d bytes, want %d", len(buf), d.pageSize)
	}
	copy(p, buf) // Allocate sized p; Read copies out, so nothing aliases it
	d.writes++
	return nil
}

// Free releases page id and queues it for reuse. Freeing an unallocated page
// is an error — it indicates double-free in the heap-file layer. The page's
// image goes to slab.Bytes: Read and Write copy, so nothing outside the map
// ever pointed into it.
func (d *DiskManager) Free(id PageID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	p, ok := d.pages[id]
	if !ok {
		return fmt.Errorf("storage: free of unallocated page %d", id)
	}
	delete(d.pages, id)
	d.release(id)
	slab.Bytes.Give(p)
	return nil
}

// HighWater reports the highest PageID ever handed out (0 before the first
// allocation). With free-list reuse, Allocated() can shrink while HighWater
// stays put, so the pair distinguishes footprint from churn.
func (d *DiskManager) HighWater() PageID {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.next - 1
}

// Allocated reports the number of live pages (a proxy for disk usage).
func (d *DiskManager) Allocated() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.pages)
}

// Stats reports cumulative physical reads and writes.
func (d *DiskManager) Stats() (reads, writes int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.reads, d.writes
}
