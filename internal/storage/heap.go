package storage

import (
	"fmt"
	"sync"
)

// PagePool is the slice of buffer-pool behaviour the heap file needs. It is
// defined here (consumer side) so storage does not import the buffer package.
type PagePool interface {
	// Get pins a page and returns its buffer.
	Get(PageID) ([]byte, error)
	// Unpin releases a pin, recording whether the buffer was modified.
	Unpin(id PageID, dirty bool)
	// New allocates a fresh pinned page.
	New() (PageID, []byte, error)
	// Free drops a page from pool and disk.
	Free(PageID) error
}

// RID locates a record: the index of its page within the owning heap file and
// its slot on that page.
type RID struct {
	Page int32
	Slot int32
}

// Bits packs the RID into one word, page above slot, so that packed RIDs
// order as RIDs do: a sort of key images can carry each row's RID beside its
// image.
func (r RID) Bits() uint64 { return uint64(uint32(r.Page))<<32 | uint64(uint32(r.Slot)) }

// RIDOfBits is the RID that Bits packed into u.
func RIDOfBits(u uint64) RID { return RID{Page: int32(u >> 32), Slot: int32(uint32(u))} }

// String renders the RID as "page:slot".
func (r RID) String() string { return fmt.Sprintf("%d:%d", r.Page, r.Slot) }

// HeapFile is an unordered collection of records spread over slotted pages.
// It is append-only: the paper's environment is a read-only database plus
// whole-table materializations, so record-level delete is unnecessary.
//
// Metadata (the page list and row count) is guarded by an RWMutex so readers
// on other sessions — the speculation cost model prices staging by reading
// PageIDs/NumPages — never race with a concurrent materialization's inserts.
// Readers snapshot the append-only page list and then walk it lock-free; page
// contents are protected by buffer-pool pins plus the engine's statement lock
// (whoever writes a page holds it exclusively).
//
// The read paths a query runs — NewIterator and View — take the pool to fetch
// through as an argument, so a statement's page misses are charged to the
// meter of the pool view it carries (buffer.View); nil means the file's own
// pool. Everything else (Insert, Scan, Drop) goes through the file's own pool.
type HeapFile struct {
	pool  PagePool
	mu    sync.RWMutex
	pages []PageID
	rows  int64
}

// NewHeapFile returns an empty heap file writing through pool.
func NewHeapFile(pool PagePool) *HeapFile {
	return &HeapFile{pool: pool}
}

// OpenHeapFile rehydrates a heap file from recovered metadata (the page list
// and row count persisted by a durable backend at the last commit). The page
// contents are already durable; no scan or rebuild happens here.
func OpenHeapFile(pool PagePool, pages []PageID, rows int64) *HeapFile {
	h := &HeapFile{pool: pool, rows: rows}
	h.pages = make([]PageID, len(pages))
	copy(h.pages, pages)
	return h
}

// NumPages reports the number of pages in the file.
func (h *HeapFile) NumPages() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return len(h.pages)
}

// NumRows reports the number of records in the file.
func (h *HeapFile) NumRows() int64 {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.rows
}

// PageIDs returns the file's page IDs in order (used by data staging).
func (h *HeapFile) PageIDs() []PageID {
	h.mu.RLock()
	defer h.mu.RUnlock()
	out := make([]PageID, len(h.pages))
	copy(out, h.pages)
	return out
}

// Insert appends a record and returns its RID.
func (h *HeapFile) Insert(rec []byte) (RID, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if n := len(h.pages); n > 0 {
		buf, err := h.pool.Get(h.pages[n-1])
		if err != nil {
			return RID{}, err
		}
		// Room is tested first: a full page is the common case at every page
		// boundary, and Insert's refusal is a formatted error.
		if page := AsSlotted(buf); len(rec) <= page.FreeSpace() {
			slot, err := page.Insert(rec)
			h.pool.Unpin(h.pages[n-1], err == nil)
			if err != nil {
				return RID{}, err
			}
			h.rows++
			return RID{Page: int32(n - 1), Slot: int32(slot)}, nil
		}
		h.pool.Unpin(h.pages[n-1], false)
	}
	id, buf, err := h.pool.New()
	if err != nil {
		return RID{}, err
	}
	page := InitSlotted(buf)
	slot, err := page.Insert(rec)
	h.pool.Unpin(id, true)
	if err != nil {
		return RID{}, fmt.Errorf("storage: record too large for an empty page: %w", err)
	}
	h.pages = append(h.pages, id)
	h.rows++
	return RID{Page: int32(len(h.pages) - 1), Slot: int32(slot)}, nil
}

// Scan visits every record in file order. The rec slice passed to fn aliases
// the page buffer and is only valid during the callback. Returning a non-nil
// error from fn stops the scan and propagates the error.
func (h *HeapFile) Scan(fn func(rid RID, rec []byte) error) error {
	pages := h.PageIDs()
	for pi, id := range pages {
		buf, err := h.pool.Get(id)
		if err != nil {
			return err
		}
		page := AsSlotted(buf)
		for si := 0; si < page.NumSlots(); si++ {
			rec, err := page.Record(si)
			if err != nil {
				h.pool.Unpin(id, false)
				return err
			}
			if err := fn(RID{Page: int32(pi), Slot: int32(si)}, rec); err != nil {
				h.pool.Unpin(id, false)
				return err
			}
		}
		h.pool.Unpin(id, false)
	}
	return nil
}

// View pins the page holding rid, fetching it through via (nil: the file's
// own pool), and calls fn with the record. rec aliases the page buffer and is
// valid only during the call: the frame may be handed to another page as soon
// as the pin is released, so fn must decode or copy what it keeps. fn's error
// is returned as is.
func (h *HeapFile) View(via PagePool, rid RID, fn func(rec []byte) error) error {
	if via == nil {
		via = h.pool
	}
	h.mu.RLock()
	if rid.Page < 0 || int(rid.Page) >= len(h.pages) {
		h.mu.RUnlock()
		return fmt.Errorf("storage: RID %v page out of range", rid)
	}
	id := h.pages[rid.Page]
	h.mu.RUnlock()
	buf, err := via.Get(id)
	if err != nil {
		return err
	}
	defer via.Unpin(id, false)
	rec, err := AsSlotted(buf).Record(int(rid.Slot))
	if err != nil {
		return err
	}
	return fn(rec)
}

// Drop frees every page of the file. The file must not be used afterwards.
func (h *HeapFile) Drop() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, id := range h.pages {
		if err := h.pool.Free(id); err != nil {
			return err
		}
	}
	h.pages = nil
	h.rows = 0
	return nil
}
