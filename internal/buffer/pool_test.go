package buffer

import (
	"strings"
	"testing"

	"specdb/internal/obs"
	"specdb/internal/sim"
	"specdb/internal/storage"
)

func newTestPool(capacity int) (*Pool, *storage.DiskManager, *sim.Meter) {
	disk := storage.NewDiskManager(128)
	meter := sim.NewMeter()
	return NewPool(disk, capacity, meter), disk, meter
}

func TestPoolHitMiss(t *testing.T) {
	p, disk, meter := newTestPool(4)
	id := disk.Allocate()

	buf, err := p.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	copy(buf, "abc")
	p.Unpin(id, true)

	buf2, err := p.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf2[:3]) != "abc" {
		t.Fatal("cached content lost")
	}
	p.Unpin(id, false)

	st := p.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", st.Hits, st.Misses)
	}
	if w := meter.Snapshot(); w.PageReads != 1 {
		t.Fatalf("meter charged %d reads, want 1", w.PageReads)
	}
}

func TestPoolEvictionLRU(t *testing.T) {
	p, disk, _ := newTestPool(2)
	a, b, c := disk.Allocate(), disk.Allocate(), disk.Allocate()

	get := func(id storage.PageID) {
		if _, err := p.Get(id); err != nil {
			t.Fatal(err)
		}
		p.Unpin(id, false)
	}
	get(a)
	get(b)
	get(a) // a is now MRU; b is LRU
	get(c) // evicts b
	if !p.Contains(a) || p.Contains(b) || !p.Contains(c) {
		t.Fatalf("LRU eviction wrong: a=%v b=%v c=%v",
			p.Contains(a), p.Contains(b), p.Contains(c))
	}
}

func TestPoolDirtyWriteBackOnEviction(t *testing.T) {
	p, disk, meter := newTestPool(2)
	a, b, c := disk.Allocate(), disk.Allocate(), disk.Allocate()

	buf, err := p.Get(a)
	if err != nil {
		t.Fatal(err)
	}
	copy(buf, "dirty")
	p.Unpin(a, true)

	for _, id := range []storage.PageID{b, c} { // force eviction of a
		if _, err := p.Get(id); err != nil {
			t.Fatal(err)
		}
		p.Unpin(id, false)
	}
	if p.Contains(a) {
		t.Fatal("a should be evicted")
	}
	raw := make([]byte, 128)
	if err := disk.Read(a, raw); err != nil {
		t.Fatal(err)
	}
	if string(raw[:5]) != "dirty" {
		t.Fatal("dirty page not written back on eviction")
	}
	if w := meter.Snapshot(); w.PageWrites != 1 {
		t.Fatalf("meter charged %d writes, want 1", w.PageWrites)
	}
}

func TestPoolPinnedPagesNotEvicted(t *testing.T) {
	p, disk, _ := newTestPool(2)
	a, b, c := disk.Allocate(), disk.Allocate(), disk.Allocate()

	if _, err := p.Get(a); err != nil {
		t.Fatal(err) // a stays pinned
	}
	if _, err := p.Get(b); err != nil {
		t.Fatal(err)
	}
	p.Unpin(b, false)
	if _, err := p.Get(c); err != nil { // must evict b, not pinned a
		t.Fatal(err)
	}
	p.Unpin(c, false)
	if !p.Contains(a) || p.Contains(b) {
		t.Fatal("pinned page evicted or unpinned page kept")
	}
	p.Unpin(a, false)
}

func TestPoolAllPinnedFails(t *testing.T) {
	p, disk, _ := newTestPool(2)
	a, b, c := disk.Allocate(), disk.Allocate(), disk.Allocate()
	if _, err := p.Get(a); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Get(b); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Get(c); err == nil {
		t.Fatal("fetch with all frames pinned should fail")
	}
}

// TestPoolUnpinMisuseRecorded is a regression test for pin-discipline
// violations: Unpin of a non-resident or unpinned page used to panic the
// whole process (and before that, silently corrupted pin counts). It must be
// a deterministic recorded no-op: the pin count stays intact, the misuse is
// counted, and the first error is retained with the offending page.
func TestPoolUnpinMisuseRecorded(t *testing.T) {
	p, disk, _ := newTestPool(2)
	reg := obs.NewRegistry()
	p.AttachMetrics(reg)
	id := disk.Allocate()

	p.Unpin(id, false) // non-resident: recorded, not panicked
	if got := p.Misuses(); got != 1 {
		t.Fatalf("Misuses = %d after non-resident unpin, want 1", got)
	}
	if err := p.MisuseError(); err == nil || !strings.Contains(err.Error(), "non-resident") {
		t.Fatalf("MisuseError = %v, want non-resident unpin error", err)
	}

	if _, err := p.Get(id); err != nil {
		t.Fatal(err)
	}
	p.Unpin(id, false)
	p.Unpin(id, false) // double unpin: recorded no-op, pins stay at 0
	if got := p.Misuses(); got != 2 {
		t.Fatalf("Misuses = %d after double unpin, want 2", got)
	}
	// The no-op must not have driven pins negative: a single Get/Unpin pair
	// still leaves the page evictable, and Free (pins == 0) succeeds.
	if err := p.Free(id); err != nil {
		t.Fatalf("Free after recorded misuse: %v", err)
	}
	if got := reg.Snapshot().Counters["buffer.pool.misuses"]; got != 2 {
		t.Fatalf("buffer.pool.misuses = %d, want 2", got)
	}
	// The retained first error still names the first violation.
	if err := p.MisuseError(); err == nil || !strings.Contains(err.Error(), "non-resident") {
		t.Fatalf("MisuseError = %v, want the first recorded violation", err)
	}
}

// TestPoolDoubleFreeRecorded: freeing a page twice must surface the disk's
// error and be recorded as misuse, not corrupt pool state.
func TestPoolDoubleFreeRecorded(t *testing.T) {
	p, _, _ := newTestPool(2)
	id, _, err := p.New()
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(id, false)
	if err := p.Free(id); err != nil {
		t.Fatal(err)
	}
	if err := p.Free(id); err == nil {
		t.Fatal("double free did not error")
	}
	if got := p.Misuses(); got != 1 {
		t.Fatalf("Misuses = %d after double free, want 1", got)
	}
}

func TestPoolNew(t *testing.T) {
	p, _, meter := newTestPool(4)
	id, buf, err := p.New()
	if err != nil {
		t.Fatal(err)
	}
	copy(buf, "fresh")
	p.Unpin(id, true)
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// New pages charge no read.
	if w := meter.Snapshot(); w.PageReads != 0 || w.PageWrites != 1 {
		t.Fatalf("meter %+v, want 0 reads / 1 write", w)
	}
}

func TestPoolStageSurvivesEviction(t *testing.T) {
	p, disk, _ := newTestPool(2)
	a, b, c := disk.Allocate(), disk.Allocate(), disk.Allocate()
	if err := p.Stage(a); err != nil {
		t.Fatal(err)
	}
	if p.StagedCount() != 1 {
		t.Fatalf("StagedCount = %d", p.StagedCount())
	}
	for _, id := range []storage.PageID{b, c} {
		if _, err := p.Get(id); err != nil {
			t.Fatal(err)
		}
		p.Unpin(id, false)
	}
	if !p.Contains(a) {
		t.Fatal("staged page was evicted")
	}
	p.Unstage(a)
	// After unstaging, a is evictable again.
	if _, err := p.Get(b); err != nil {
		t.Fatal(err)
	}
	p.Unpin(b, false)
	if _, err := p.Get(c); err != nil {
		t.Fatal(err)
	}
	p.Unpin(c, false)
	if p.Contains(a) {
		t.Fatal("unstaged page survived eviction pressure")
	}
}

func TestPoolStageResidentCountsHit(t *testing.T) {
	p, disk, _ := newTestPool(4)
	a := disk.Allocate()
	if _, err := p.Get(a); err != nil {
		t.Fatal(err)
	}
	p.Unpin(a, false)
	if err := p.Stage(a); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", st.Hits, st.Misses)
	}
}

func TestPoolEvictAll(t *testing.T) {
	p, disk, _ := newTestPool(4)
	a := disk.Allocate()
	buf, err := p.Get(a)
	if err != nil {
		t.Fatal(err)
	}
	copy(buf, "keep")
	p.Unpin(a, true)
	if err := p.EvictAll(); err != nil {
		t.Fatal(err)
	}
	if p.Resident() != 0 {
		t.Fatalf("Resident = %d after EvictAll", p.Resident())
	}
	raw := make([]byte, 128)
	if err := disk.Read(a, raw); err != nil {
		t.Fatal(err)
	}
	if string(raw[:4]) != "keep" {
		t.Fatal("EvictAll lost dirty data")
	}
}

func TestPoolEvictAllFailsWhenPinned(t *testing.T) {
	p, disk, _ := newTestPool(4)
	a := disk.Allocate()
	if _, err := p.Get(a); err != nil {
		t.Fatal(err)
	}
	if err := p.EvictAll(); err == nil {
		t.Fatal("EvictAll with a pinned page should fail")
	}
}

func TestPoolFree(t *testing.T) {
	p, disk, _ := newTestPool(4)
	id, _, err := p.New()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Free(id); err == nil {
		t.Fatal("free of pinned page should fail")
	}
	p.Unpin(id, false)
	if err := p.Free(id); err != nil {
		t.Fatal(err)
	}
	if disk.Allocated() != 0 {
		t.Fatal("disk page leaked after Free")
	}
	if p.Contains(id) {
		t.Fatal("freed page still resident")
	}
}

func TestPoolCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("capacity 1 did not panic")
		}
	}()
	disk := storage.NewDiskManager(128)
	NewPool(disk, 1, sim.NewMeter())
}

// TestPoolHitRatioAcrossEviction pins the hit/miss accounting through an
// eviction cycle: re-fetching an evicted page is a fresh miss, a dirty victim
// counts one write-back, and the attached obs counters mirror the struct
// exactly.
func TestPoolHitRatioAcrossEviction(t *testing.T) {
	p, disk, _ := newTestPool(2)
	reg := obs.NewRegistry()
	p.AttachMetrics(reg)
	a, b, c := disk.Allocate(), disk.Allocate(), disk.Allocate()

	get := func(id storage.PageID, dirty bool) {
		t.Helper()
		if _, err := p.Get(id); err != nil {
			t.Fatal(err)
		}
		p.Unpin(id, dirty)
	}
	get(a, true)  // miss; a dirty
	get(b, false) // miss
	get(a, false) // hit, a MRU
	get(c, false) // miss, evicts b
	get(b, false) // miss again: b was evicted; evicts dirty a -> 1 write-back
	get(c, false) // hit

	st := p.Stats()
	if st.Hits != 2 || st.Misses != 4 || st.Fetches != 6 {
		t.Fatalf("stats %+v, want hits=2 misses=4 fetches=6", st)
	}
	if st.Writes != 1 {
		t.Fatalf("writes = %d, want 1 (dirty victim written back)", st.Writes)
	}
	if got, want := st.HitRatio(), 2.0/6.0; got != want {
		t.Fatalf("HitRatio = %v, want %v", got, want)
	}

	snap := reg.Snapshot()
	for name, want := range map[string]int64{
		"buffer.pool.hits":    st.Hits,
		"buffer.pool.misses":  st.Misses,
		"buffer.pool.writes":  st.Writes,
		"buffer.pool.fetches": st.Fetches,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestPoolHitRatioEmpty pins the zero-fetch corner: no division by zero.
func TestPoolHitRatioEmpty(t *testing.T) {
	var s Stats
	if got := s.HitRatio(); got != 0 {
		t.Fatalf("HitRatio on empty stats = %v, want 0", got)
	}
}

// TestViewChargesItsOwnMeter: a fetch through a view charges the view's meter
// — the miss and the write-back of the dirty victim it evicts — and nothing
// else; the pool's own methods charge the default target, which ChargeTo
// moves.
func TestViewChargesItsOwnMeter(t *testing.T) {
	p, disk, def := newTestPool(2)
	a, b, c, d := disk.Allocate(), disk.Allocate(), disk.Allocate(), disk.Allocate()
	mine, other := sim.NewMeter(), sim.NewMeter()
	v, w := p.View(mine), p.View(other)

	buf, err := v.Get(a) // miss
	if err != nil {
		t.Fatal(err)
	}
	copy(buf, "dirty")
	v.Unpin(a, true)
	if _, err := w.Get(b); err != nil { // miss on the other view
		t.Fatal(err)
	}
	w.Unpin(b, false)
	if _, err := v.Get(c); err != nil { // miss; evicts a, writing it back
		t.Fatal(err)
	}
	v.Unpin(c, false)
	if _, err := v.Get(c); err != nil { // hit
		t.Fatal(err)
	}
	v.Unpin(c, false)
	if got, want := mine.Snapshot(), (sim.Work{PageReads: 2, PageWrites: 1}); got != want {
		t.Fatalf("view meter %+v, want %+v", got, want)
	}
	if got, want := other.Snapshot(), (sim.Work{PageReads: 1}); got != want {
		t.Fatalf("other view's meter %+v, want %+v", got, want)
	}
	if got := def.Snapshot(); got != (sim.Work{}) {
		t.Fatalf("default target charged %+v by view traffic", got)
	}

	redirected := sim.NewMeter()
	p.ChargeTo(redirected)
	if _, err := p.Get(d); err != nil { // miss through the pool itself
		t.Fatal(err)
	}
	p.Unpin(d, false)
	p.ChargeTo(def)
	if _, err := p.Get(a); err != nil { // miss, back on the first default
		t.Fatal(err)
	}
	p.Unpin(a, false)
	if got := redirected.Snapshot().PageReads; got != 1 {
		t.Fatalf("redirected default charged %d reads, want 1", got)
	}
	if got := def.Snapshot().PageReads; got != 1 {
		t.Fatalf("restored default charged %d reads, want 1", got)
	}
	if st := p.Stats(); st.Misses != mine.Snapshot().PageReads+other.Snapshot().PageReads+2 {
		t.Fatalf("pool missed %d times, meters account for %d", st.Misses, mine.Snapshot().PageReads+other.Snapshot().PageReads+2)
	}
}
