package buffer

import (
	"bytes"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"testing"

	"specdb/internal/sim"
	"specdb/internal/storage"
)

// Frame recycling (DESIGN.md §15): a departing frame serves the next
// admission as the shard's spare, its buffer through slab.Bytes past that, so
// a steady stream of misses allocates nothing — and a recycled buffer must
// never show its previous page.

func TestSteadyStateMissAllocatesNoPageBuffer(t *testing.T) {
	const frames = 8
	disk := storage.NewDiskManager(0)
	p := NewPool(disk, frames, sim.NewMeter())
	ids := make([]storage.PageID, 4*frames)
	for i := range ids {
		ids[i] = disk.Allocate()
	}
	next := 0
	miss := func() {
		id := ids[next%len(ids)]
		next++
		if _, err := p.Get(id); err != nil {
			t.Fatal(err)
		}
		p.Unpin(id, false)
	}
	for range ids { // fill the pool; from here on every Get evicts
		miss()
	}
	before := p.Stats()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	// The victim's frame record, buffer and ring links serve the miss.
	if allocs := testing.AllocsPerRun(1000, miss); allocs != 0 {
		t.Fatalf("a steady-state miss allocates %.1f times, want 0", allocs)
	}
	runtime.ReadMemStats(&m1)
	st := p.Stats()
	misses := st.Misses - before.Misses
	if misses < 1000 || st.Hits != before.Hits {
		t.Fatalf("%d misses and %d hits in the measured loop: not a stream of misses", misses, st.Hits-before.Hits)
	}
	if perMiss := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(misses); perMiss > float64(disk.PageSize())/16 {
		t.Fatalf("a steady-state miss allocates %.0f bytes: page buffers (%d bytes) are not recycled", perMiss, disk.PageSize())
	}
}

func TestNewPageOnRecycledFrameIsZero(t *testing.T) {
	p, _, _ := newTestPool(2)
	dirty := func() storage.PageID {
		id, buf, err := p.New()
		if err != nil {
			t.Fatal(err)
		}
		for i := range buf {
			if buf[i] != 0 {
				t.Fatalf("fresh page %d has byte %#x at %d", id, buf[i], i)
			}
			buf[i] = 0xFF
		}
		p.Unpin(id, true)
		return id
	}
	// The third and later pages evict an all-0xFF page and take its buffer.
	var ids []storage.PageID
	for i := 0; i < 6; i++ {
		ids = append(ids, dirty())
	}
	// Freeing a resident page hands its buffer on as well.
	if err := p.Free(ids[len(ids)-1]); err != nil {
		t.Fatal(err)
	}
	dirty()
	// What was written survives the recycling of its frame.
	buf, err := p.Get(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	defer p.Unpin(ids[0], false)
	if !bytes.Equal(buf, bytes.Repeat([]byte{0xFF}, len(buf))) {
		t.Fatal("page 0 lost its content")
	}
}

// TestNewPageOnSlabBufferIsZero: buffers that leave a pool beyond its one
// spare go to slab.Bytes, where another pool's admissions take them; a page
// that pool creates reads all zeros all the same.
func TestNewPageOnSlabBufferIsZero(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))  // slab.Bytes is per P
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // and a collection empties it
	const frames = 4
	junked := map[*byte]bool{}
	old := NewPool(storage.NewDiskManager(0), frames, sim.NewMeter())
	for i := 0; i < frames; i++ {
		id, buf, err := old.New()
		if err != nil {
			t.Fatal(err)
		}
		for j := range buf {
			buf[j] = 0xFF
		}
		junked[&buf[0]] = true
		old.Unpin(id, true)
	}
	if err := old.EvictAll(); err != nil { // one buffer stays the spare, three go to the slab
		t.Fatal(err)
	}
	p := NewPool(storage.NewDiskManager(0), frames, sim.NewMeter())
	recycled := 0
	for i := 0; i < frames; i++ {
		id, buf, err := p.New()
		if err != nil {
			t.Fatal(err)
		}
		if junked[&buf[0]] {
			recycled++
		}
		if j := bytes.IndexFunc(buf, func(r rune) bool { return r != 0 }); j >= 0 {
			t.Fatalf("new page %d has byte %#x at %d", id, buf[j], j)
		}
		p.Unpin(id, false)
	}
	// The new disk's Allocate takes from the same slab, so the three given
	// buffers are shared between page images and frames.
	if !raceEnabled && recycled == 0 {
		t.Fatal("no page of the new pool took a buffer the old pool gave back: the test never saw a recycled buffer")
	}
}

// TestWarmFreeAllocateAdmitAllocatesNoPageBuffer: a page created and freed
// again and again — the disk's image given back at Free and taken at
// Allocate, the frame buffer retired to the spare or, past it, to the slab,
// and taken at admission — allocates no page-sized buffer once warm, only the
// frame record of the page that found the spare taken.
func TestWarmFreeAllocateAdmitAllocatesNoPageBuffer(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	disk := storage.NewDiskManager(0)
	p := NewPool(disk, 8, sim.NewMeter())
	cycle := func() {
		var ids [2]storage.PageID // two, so one buffer goes past the spare
		for i := range ids {
			id, _, err := p.New()
			if err != nil {
				t.Fatal(err)
			}
			p.Unpin(id, true)
			ids[i] = id
		}
		for _, id := range ids {
			if err := p.Free(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	allocs := testing.AllocsPerRun(200, cycle)
	runtime.ReadMemStats(&m1)
	if allocs > 1 {
		t.Fatalf("creating and freeing two pages allocates %.1f times, want at most 1 frame record (the second page's; the first reuses the spare)", allocs)
	}
	if perCycle := (m1.TotalAlloc - m0.TotalAlloc) / 201; perCycle > uint64(disk.PageSize())/16 {
		t.Fatalf("creating and freeing two pages allocates %d bytes: page images or frame buffers (%d bytes) are not recycled", perCycle, disk.PageSize())
	}
}

// poisoned returns a page-sized buffer of 0xAA, standing for a recycled frame.
func poisoned(size int) []byte { return bytes.Repeat([]byte{0xAA}, size) }

// readAll reads page id into a poisoned buffer and requires exactly want.
func readAll(t *testing.T, disk storage.Disk, what string, id storage.PageID, want []byte) {
	t.Helper()
	buf := poisoned(disk.PageSize())
	if err := disk.Read(id, buf); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if !bytes.Equal(buf, want) {
		t.Fatalf("%s: Read left bytes of the caller's buffer in place", what)
	}
}

func TestDiskReadsFillTheWholePage(t *testing.T) {
	pattern := func(size int) []byte {
		b := make([]byte, size)
		for i := range b {
			b[i] = byte(i*7 + 1)
		}
		return b
	}

	dm := storage.NewDiskManager(256)
	zero := make([]byte, dm.PageSize())
	fresh, written := dm.Allocate(), dm.Allocate()
	if err := dm.Write(written, pattern(256)); err != nil {
		t.Fatal(err)
	}
	readAll(t, dm, "DiskManager, never written", fresh, zero)
	readAll(t, dm, "DiskManager, written", written, pattern(256))

	fd, err := storage.OpenFileDisk(storage.FileConfig{Path: filepath.Join(t.TempDir(), "pages.db"), PageSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer fd.Close()
	fresh, written = fd.Allocate(), fd.Allocate()
	if err := fd.Write(written, pattern(256)); err != nil {
		t.Fatal(err)
	}
	readAll(t, fd, "FileDisk, allocated in the log", fresh, zero)
	readAll(t, fd, "FileDisk, written in the log", written, pattern(256))
	if _, err := fd.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	readAll(t, fd, "FileDisk, never written, after checkpoint", fresh, zero)
	readAll(t, fd, "FileDisk, written, after checkpoint", written, pattern(256))
	// Allocated after the checkpoint and beyond the end of the page file.
	far := fd.Allocate()
	if _, err := fd.Commit(nil); err != nil {
		t.Fatal(err)
	}
	readAll(t, fd, "FileDisk, past the end of the file", far, zero)
}
