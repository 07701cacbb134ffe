package storage

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"
	"testing/quick"
)

func TestDiskAllocateReadWrite(t *testing.T) {
	d := NewDiskManager(256)
	id := d.Allocate()
	if id == 0 {
		t.Fatal("PageID 0 must never be allocated")
	}
	buf := make([]byte, 256)
	if err := d.Read(id, buf); err != nil {
		t.Fatal(err)
	}
	for _, b := range buf {
		if b != 0 {
			t.Fatal("fresh page not zeroed")
		}
	}
	copy(buf, "hello")
	if err := d.Write(id, buf); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 256)
	if err := d.Read(id, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:5], []byte("hello")) {
		t.Fatal("read back mismatch")
	}
	r, w := d.Stats()
	if r != 2 || w != 1 {
		t.Fatalf("stats reads=%d writes=%d, want 2/1", r, w)
	}
}

// TestFreedPageReallocatesZeroed: a freed page's image goes to slab.Bytes
// and serves the next Allocate, and a page Allocate hands out reads all
// zeros whatever the image held before.
func TestFreedPageReallocatesZeroed(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))  // slab.Bytes is per P
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // and a collection empties it
	d := NewDiskManager(256)
	junk, zero := bytes.Repeat([]byte{0xA5}, 256), make([]byte, 256)
	recycled := 0
	id := d.Allocate()
	for i := 0; i < 50; i++ {
		if err := d.Write(id, junk); err != nil {
			t.Fatal(err)
		}
		image := &d.pages[id][0]
		if err := d.Free(id); err != nil {
			t.Fatal(err)
		}
		id = d.Allocate()
		if &d.pages[id][0] == image {
			recycled++
		}
		got := make([]byte, 256)
		if err := d.Read(id, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, zero) {
			t.Fatalf("cycle %d: a junk page freed and allocated again reads % x…, want zeros", i, got[:8])
		}
	}
	if recycled == 0 { // sync.Pool may drop an item under -race, not 50 in a row
		t.Fatal("no freed image served a later Allocate: the test never saw a recycled page")
	}
}

func TestDiskErrors(t *testing.T) {
	d := NewDiskManager(128)
	buf := make([]byte, 128)
	if err := d.Read(99, buf); err == nil {
		t.Fatal("read of unallocated page should fail")
	}
	if err := d.Write(99, buf); err == nil {
		t.Fatal("write to unallocated page should fail")
	}
	if err := d.Free(99); err == nil {
		t.Fatal("free of unallocated page should fail")
	}
	id := d.Allocate()
	if err := d.Read(id, make([]byte, 64)); err == nil {
		t.Fatal("short read buffer should fail")
	}
	if err := d.Write(id, make([]byte, 64)); err == nil {
		t.Fatal("short write buffer should fail")
	}
	if err := d.Free(id); err != nil {
		t.Fatal(err)
	}
	if err := d.Free(id); err == nil {
		t.Fatal("double free should fail")
	}
	if d.Allocated() != 0 {
		t.Fatalf("Allocated = %d, want 0", d.Allocated())
	}
}

func TestSlottedPageInsertAndRead(t *testing.T) {
	buf := make([]byte, 256)
	p := InitSlotted(buf)
	if p.NumSlots() != 0 {
		t.Fatal("fresh page has slots")
	}
	recs := [][]byte{[]byte("alpha"), []byte("b"), []byte("gamma-gamma")}
	for i, r := range recs {
		slot, err := p.Insert(r)
		if err != nil {
			t.Fatal(err)
		}
		if slot != i {
			t.Fatalf("slot %d, want %d", slot, i)
		}
	}
	// Re-interpret from raw bytes, as a buffer-pool reload would.
	q := AsSlotted(buf)
	if q.NumSlots() != 3 {
		t.Fatalf("NumSlots = %d", q.NumSlots())
	}
	for i, want := range recs {
		got, err := q.Record(i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("record %d = %q, want %q", i, got, want)
		}
	}
	if _, err := q.Record(3); err == nil {
		t.Fatal("out-of-range slot should fail")
	}
	if _, err := q.Record(-1); err == nil {
		t.Fatal("negative slot should fail")
	}
}

func TestSlottedPageFull(t *testing.T) {
	buf := make([]byte, 64)
	p := InitSlotted(buf)
	rec := bytes.Repeat([]byte("x"), 10)
	inserted := 0
	for {
		if _, err := p.Insert(rec); err != nil {
			break
		}
		inserted++
	}
	// 64 bytes − 4 header = 60; each record costs 10+4 = 14 → 4 fit.
	if inserted != 4 {
		t.Fatalf("inserted %d records, want 4", inserted)
	}
	// All earlier records still intact.
	for i := 0; i < inserted; i++ {
		got, err := p.Record(i)
		if err != nil || !bytes.Equal(got, rec) {
			t.Fatalf("record %d corrupted after page-full", i)
		}
	}
}

// Property: any sequence of records that fit individually round-trips in
// order through a slotted page, spilling correctly when full.
func TestSlottedPageProperty(t *testing.T) {
	f := func(recs [][]byte) bool {
		buf := make([]byte, 512)
		p := InitSlotted(buf)
		var kept [][]byte
		for _, r := range recs {
			if len(r) > 200 {
				r = r[:200]
			}
			if _, err := p.Insert(r); err == nil {
				kept = append(kept, r)
			}
		}
		if p.NumSlots() != len(kept) {
			return false
		}
		for i, want := range kept {
			got, err := p.Record(i)
			if err != nil || !bytes.Equal(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// directPool is a PagePool without caching, for heap-file tests that do not
// want buffer-pool behaviour in the loop. It keeps the last Get/New buffer
// per page and writes it back on Unpin(dirty), mimicking pin semantics.
type directPool struct {
	disk   *DiskManager
	pinned map[PageID][]byte
}

func newDirectPool(pageSize int) *directPool {
	return &directPool{disk: NewDiskManager(pageSize)}
}

func (p *directPool) Get(id PageID) ([]byte, error) {
	buf := make([]byte, p.disk.PageSize())
	if err := p.disk.Read(id, buf); err != nil {
		return nil, err
	}
	p.live(id, buf)
	return buf, nil
}

func (p *directPool) live(id PageID, buf []byte) {
	if p.pinned == nil {
		p.pinned = make(map[PageID][]byte)
	}
	p.pinned[id] = buf
}

var _ PagePool = (*directPool)(nil)

func (p *directPool) Unpin(id PageID, dirty bool) {
	if dirty {
		if buf, ok := p.pinned[id]; ok {
			if err := p.disk.Write(id, buf); err != nil {
				panic(err)
			}
		}
	}
	delete(p.pinned, id)
}

func (p *directPool) New() (PageID, []byte, error) {
	id := p.disk.Allocate()
	buf := make([]byte, p.disk.PageSize())
	p.live(id, buf)
	return id, buf, nil
}

func (p *directPool) Free(id PageID) error { return p.disk.Free(id) }

func TestHeapFileInsertScanFetch(t *testing.T) {
	pool := newDirectPool(128)
	h := NewHeapFile(pool)
	var rids []RID
	for i := 0; i < 50; i++ {
		rid, err := h.Insert([]byte(fmt.Sprintf("record-%02d", i)))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if h.NumRows() != 50 {
		t.Fatalf("NumRows = %d", h.NumRows())
	}
	if h.NumPages() < 2 {
		t.Fatalf("expected spill across pages, got %d page(s)", h.NumPages())
	}
	var seen []string
	err := h.Scan(func(rid RID, rec []byte) error {
		seen = append(seen, string(rec))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 50 || seen[0] != "record-00" || seen[49] != "record-49" {
		t.Fatalf("scan saw %d records, first=%q last=%q", len(seen), seen[0], seen[len(seen)-1])
	}
	var got string
	keep := func(rec []byte) error { got = string(rec); return nil }
	if err := h.View(nil, rids[37], keep); err != nil {
		t.Fatal(err)
	}
	if got != "record-37" {
		t.Fatalf("View = %q", got)
	}
	if err := h.View(nil, RID{Page: 99, Slot: 0}, keep); err == nil {
		t.Fatal("view of bad RID should fail")
	}
}

func TestHeapFileScanEarlyStop(t *testing.T) {
	pool := newDirectPool(128)
	h := NewHeapFile(pool)
	for i := 0; i < 10; i++ {
		if _, err := h.Insert([]byte("r")); err != nil {
			t.Fatal(err)
		}
	}
	count := 0
	sentinel := fmt.Errorf("stop")
	err := h.Scan(func(rid RID, rec []byte) error {
		count++
		if count == 3 {
			return sentinel
		}
		return nil
	})
	if err != sentinel || count != 3 {
		t.Fatalf("early stop: err=%v count=%d", err, count)
	}
	if len(pool.pinned) != 0 {
		t.Fatal("scan leaked pins on early stop")
	}
}

func TestHeapFileDrop(t *testing.T) {
	pool := newDirectPool(128)
	h := NewHeapFile(pool)
	for i := 0; i < 30; i++ {
		if _, err := h.Insert([]byte("0123456789")); err != nil {
			t.Fatal(err)
		}
	}
	if pool.disk.Allocated() == 0 {
		t.Fatal("no pages allocated")
	}
	if err := h.Drop(); err != nil {
		t.Fatal(err)
	}
	if pool.disk.Allocated() != 0 {
		t.Fatalf("pages leaked after drop: %d", pool.disk.Allocated())
	}
	if h.NumRows() != 0 || h.NumPages() != 0 {
		t.Fatal("dropped file not empty")
	}
}

func TestHeapFileTooLargeRecord(t *testing.T) {
	pool := newDirectPool(64)
	h := NewHeapFile(pool)
	if _, err := h.Insert(bytes.Repeat([]byte("x"), 100)); err == nil {
		t.Fatal("oversized record should fail")
	}
}
