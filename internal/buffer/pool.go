// Package buffer implements the engine's buffer pool: a fixed set of frames
// over the simulated disk with LRU replacement, pin counts, dirty write-back,
// and hit/miss statistics. Misses and write-backs are charged to a sim.Meter,
// which is how simulated I/O time arises; which meter is the caller's choice,
// fetch by fetch (see View and ChargeTo). Sticky pins implement the paper's
// *data staging* manipulation (Section 3.2), which the authors could not
// build on top of Oracle but which we can, owning the pool.
//
// The pool is lock-striped: frames are partitioned into N shards by a hash of
// the page ID, and each shard owns its own mutex, frame table, LRU list, and
// counters, so concurrent sessions touching disjoint pages never contend.
// With one shard (the default, and the experiment-harness configuration) one
// mutex guards every frame and eviction is one global LRU: the pool every
// pinned experiment's numbers come from.
package buffer

import (
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"

	"specdb/internal/fault"
	"specdb/internal/obs"
	"specdb/internal/sim"
	"specdb/internal/slab"
	"specdb/internal/storage"
)

// Pool is a buffer pool over one disk manager, striped into shards. Every
// operation on a page is atomic under its shard's lock, so concurrent
// sessions can share the pool: the frame tables, LRU lists, pin counts, and
// hit/miss counters never race. Buffer *contents* returned by Get are
// additionally protected by the engine's statement lock: a statement that
// writes a page holds it exclusively, so the statements that overlap only
// read.
//
// The pool owns no meter. Every operation that can cost simulated I/O — a
// miss, a fault retry, the write-back of the victim it evicts — charges the
// meter of the caller that caused it: a View carries its statement's meter,
// and the Pool's own methods charge the default target, which is the meter
// the pool was built with until ChargeTo points it elsewhere.
type Pool struct {
	disk   storage.Disk
	shards []*shard
	// charge is the default charge target (never nil).
	charge atomic.Pointer[sim.Meter]
}

// View is the pool as one statement sees it: the same frames, pins and LRU,
// with the I/O its fetches cause charged to the meter the view was made with
// instead of the pool's default. Any number of views may fetch at once, which
// is how overlapping read-only statements each get an exact page count. It
// implements storage.PagePool.
type View struct {
	p *Pool
	m *sim.Meter
}

// View returns the pool charging to m.
func (p *Pool) View(m *sim.Meter) View { return View{p: p, m: m} }

// Get pins page id and returns its buffer, charging a miss to the view's meter.
func (v *View) Get(id storage.PageID) ([]byte, error) { return v.p.get(id, v.m) }

// Unpin releases one pin on page id (see Pool.Unpin).
func (v *View) Unpin(id storage.PageID, dirty bool) { v.p.Unpin(id, dirty) }

// New allocates a fresh pinned page, charging an eviction it forces to the
// view's meter.
func (v *View) New() (storage.PageID, []byte, error) { return v.p.newPage(v.m) }

// Free drops page id from pool and disk (see Pool.Free).
func (v *View) Free(id storage.PageID) error { return v.p.Free(id) }

// ChargeTo points the pool's default charge target at m. Only a caller that is
// alone in the pool's write paths may do this — the engine's exclusive
// statements, for their own duration — because everyone fetching through the
// Pool itself is charged to m from then on. Views are unaffected.
func (p *Pool) ChargeTo(m *sim.Meter) { p.charge.Store(m) }

// shard is one lock stripe of the pool. Every field below mu is guarded by
// mu; the *Locked methods assume the caller holds it. The obs counters are
// shared across shards (they are atomic) and are set once before traffic.
type shard struct {
	disk storage.Disk

	mu     sync.Mutex
	frames map[storage.PageID]*frame
	// lru is the sentinel of the LRU ring threaded through the resident
	// frames: lru.next is the most recently used, lru.prev the least. It
	// holds pinned and sticky frames too; eviction skips them.
	lru frame
	cap int
	// spare is a frame that left the shard (evicted or freed), kept with its
	// page buffer; the next admission reuses both before asking slab.Bytes,
	// so a miss on a full shard allocates nothing. A frame leaves only
	// unpinned, so no caller holds the buffer — the pin rule of DESIGN.md
	// §15. A frame that leaves while spare is taken gives its buffer to
	// slab.Bytes, so the shard itself never keeps more than cap buffers.
	spare *frame

	hits    int64
	misses  int64
	writes  int64
	fetches int64

	// sums holds the CRC32 of the last content written back to disk for each
	// page, verified on the next fetch so silent corruption between the pool
	// and the disk is detected, not executed. Checksumming is pure CPU — it
	// never charges the meter — so fault-free runs stay byte-identical.
	sums map[storage.PageID]uint32

	// inj injects transient admission faults and slow I/O (nil = none).
	inj *fault.Injector

	// Pin-discipline misuse (Unpin of a non-resident or unpinned page) is
	// recorded instead of corrupting pin counts: the offending call becomes a
	// deterministic no-op, the first error is retained for tests/diagnostics.
	misuses   int64
	misuseErr error

	ioRetries  int64 // transient read/write faults absorbed by retry
	corruption int64 // checksum mismatches detected on fetch

	// durable marks a WAL-backed disk underneath: every successful
	// write-back is then also a log append, so it is counted separately and
	// charged one extra page write. Off (the default): a write-back on an
	// in-memory disk appends no log and costs one page write.
	durable bool

	// Mirror counters in an observability registry (nil until AttachMetrics).
	// Purely observational: they never charge the meter or change eviction.
	obsHits, obsMisses, obsWrites, obsFetches  *obs.Counter
	obsMisuses, obsRetries, obsDetectedCorrupt *obs.Counter
	obsDurableWrites                           *obs.Counter
}

// Stats is a snapshot of the pool's cumulative traffic counters. The pool
// maintains the invariant Hits + Misses == Fetches: every logical page fetch
// (Get, or a Stage pre-fetch) is either served from a frame or from disk.
// The snapshot is consistent: all shards are locked while it is taken, so
// the invariant holds even under concurrent traffic.
type Stats struct {
	// Hits are fetches served from a resident frame.
	Hits int64
	// Misses are fetches that went to disk (and were charged to a meter).
	Misses int64
	// Writes are dirty-page write-backs.
	Writes int64
	// Fetches is the total number of logical page fetches.
	Fetches int64
}

// HitRatio is Hits/Fetches, or 0 before any fetch.
func (s Stats) HitRatio() float64 {
	if s.Fetches == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Fetches)
}

type frame struct {
	id     storage.PageID
	buf    []byte
	pins   int
	sticky bool // staged: excluded from eviction until released
	dirty  bool
	// prev and next link the frame into its shard's LRU ring.
	prev, next *frame
}

// NewPool returns a single-shard pool of capacity frames over disk whose
// default charge target is meter: one mutex over every frame, the
// configuration every pinned experiment runs.
func NewPool(disk storage.Disk, capacity int, meter *sim.Meter) *Pool {
	return NewShardedPool(disk, capacity, 1, meter)
}

// NewShardedPool returns a pool of capacity frames striped into shards lock
// stripes. The shard count is clamped so every shard keeps at least 2 frames
// (LRU needs a victim candidate besides the page being admitted); shards < 1
// is treated as 1.
func NewShardedPool(disk storage.Disk, capacity, shards int, meter *sim.Meter) *Pool {
	if capacity < 2 {
		// Programmer invariant: capacity comes from engine.Config/harness
		// constants, never from user input.
		panic("buffer: pool needs at least 2 frames")
	}
	if shards < 1 {
		shards = 1
	}
	if shards > capacity/2 {
		shards = capacity / 2
	}
	p := &Pool{disk: disk, shards: make([]*shard, shards)}
	p.charge.Store(meter)
	base, extra := capacity/shards, capacity%shards
	for i := range p.shards {
		c := base
		if i < extra {
			c++
		}
		s := &shard{
			disk:   disk,
			frames: make(map[storage.PageID]*frame, c),
			cap:    c,
			sums:   make(map[storage.PageID]uint32),
		}
		s.lru.prev, s.lru.next = &s.lru, &s.lru
		p.shards[i] = s
	}
	return p
}

// shardFor routes page id to its lock stripe. The mix is a splitmix64-style
// finalizer so sequential page IDs spread across shards; with one shard
// every page goes to shard 0 without hashing.
func (p *Pool) shardFor(id storage.PageID) *shard {
	if len(p.shards) == 1 {
		return p.shards[0]
	}
	x := uint64(id)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return p.shards[x%uint64(len(p.shards))]
}

// SameShard reports whether pages a and b live behind the same lock stripe. A
// miss does its disk read under that lock, so a fetch of a waits for an I/O in
// flight on b exactly when this is true.
func (p *Pool) SameShard(a, b storage.PageID) bool { return p.shardFor(a) == p.shardFor(b) }

// lockAll acquires every shard lock in ascending shard order (the only order
// used anywhere, so whole-pool operations cannot deadlock against each
// other), and returns the matching unlock.
func (p *Pool) lockAll() (unlock func()) {
	for _, s := range p.shards {
		s.mu.Lock()
	}
	return func() {
		for _, s := range p.shards {
			s.mu.Unlock()
		}
	}
}

// SetFaultInjector points the pool at inj for admission faults (transient
// frame exhaustion) and slow-I/O latency charges. Disk read/write faults are
// injected by wrapping the disk itself (fault.WrapDisk); the pool only needs
// the injector for decisions that live above the disk boundary.
func (p *Pool) SetFaultInjector(inj *fault.Injector) {
	for _, s := range p.shards {
		s.mu.Lock()
		s.inj = inj
		s.mu.Unlock()
	}
}

// Capacity reports the number of frames across all shards.
func (p *Pool) Capacity() int {
	n := 0
	for _, s := range p.shards {
		n += s.cap
	}
	return n
}

// Resident reports how many pages are currently cached.
func (p *Pool) Resident() int {
	n := 0
	for _, s := range p.shards {
		s.mu.Lock()
		n += len(s.frames)
		s.mu.Unlock()
	}
	return n
}

// Headroom reports how many frames could be claimed right now without
// touching pinned or staged pages: capacity minus pages a replacement scan
// must skip. The speculation scheduler uses this as its pool-pressure budget
// so background work cannot evict a foreground query's working set.
func (p *Pool) Headroom() int {
	n := 0
	for _, s := range p.shards {
		s.mu.Lock()
		n += s.headroomLocked()
		s.mu.Unlock()
	}
	return n
}

// FreeFraction reports claimable headroom as a fraction of capacity in
// [0, 1], read as one consistent cross-shard snapshot. It is the pool's
// contribution to the governor's pressure signal (DESIGN.md §13): per-shard
// Headroom reads could interleave with a migrating pin and briefly
// double-count a frame, which would make pressure-band transitions flap.
func (p *Pool) FreeFraction() float64 {
	unlock := p.lockAll()
	defer unlock()
	capacity, free := 0, 0
	for _, s := range p.shards {
		capacity += s.cap
		free += s.headroomLocked()
	}
	if capacity == 0 {
		return 0
	}
	return float64(free) / float64(capacity)
}

// Stats reports the pool's cumulative traffic counters as one consistent
// snapshot: every shard is locked for the duration of the read, so a fetch
// that is mid-flight on another goroutine is either fully included or fully
// excluded and Hits + Misses == Fetches always holds.
func (p *Pool) Stats() Stats {
	unlock := p.lockAll()
	defer unlock()
	var st Stats
	for _, s := range p.shards {
		st.Hits += s.hits
		st.Misses += s.misses
		st.Writes += s.writes
		st.Fetches += s.fetches
	}
	return st
}

// AttachMetrics mirrors the pool's counters into reg under the
// "buffer.pool.*" names (see DESIGN.md §7). Attach before serving traffic:
// the obs counters only record increments from that point on.
func (p *Pool) AttachMetrics(reg *obs.Registry) {
	hits := reg.Counter("buffer.pool.hits")
	misses := reg.Counter("buffer.pool.misses")
	writes := reg.Counter("buffer.pool.writes")
	fetches := reg.Counter("buffer.pool.fetches")
	misuses := reg.Counter("buffer.pool.misuses")
	retries := reg.Counter("buffer.pool.io_retries")
	corrupt := reg.Counter("fault.detected.corruptions")
	durable := reg.Counter("buffer.pool.durable_writes")
	for _, s := range p.shards {
		s.mu.Lock()
		s.obsHits, s.obsMisses, s.obsWrites, s.obsFetches = hits, misses, writes, fetches
		s.obsMisuses, s.obsRetries, s.obsDetectedCorrupt = misuses, retries, corrupt
		s.obsDurableWrites = durable
		s.mu.Unlock()
	}
}

// SetDurableAccounting marks the disk underneath as WAL-backed: every
// successful write-back is additionally counted (and metered) as a log
// append. The engine flips this on exactly when it opens a durable backend.
func (p *Pool) SetDurableAccounting(on bool) {
	for _, s := range p.shards {
		s.mu.Lock()
		s.durable = on
		s.mu.Unlock()
	}
}

// Misuses reports how many pin-discipline violations were recorded.
func (p *Pool) Misuses() int64 {
	var n int64
	for _, s := range p.shards {
		s.mu.Lock()
		n += s.misuses
		s.mu.Unlock()
	}
	return n
}

// MisuseError returns a recorded pin-discipline violation (the first in
// shard order), or nil.
func (p *Pool) MisuseError() error {
	for _, s := range p.shards {
		s.mu.Lock()
		err := s.misuseErr
		s.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// IORetries reports how many transient I/O faults the pool absorbed by
// retrying (including checksum-detected corruption re-reads).
func (p *Pool) IORetries() int64 {
	var n int64
	for _, s := range p.shards {
		s.mu.Lock()
		n += s.ioRetries
		s.mu.Unlock()
	}
	return n
}

// DetectedCorruptions reports how many checksum mismatches were caught on
// fetch.
func (p *Pool) DetectedCorruptions() int64 {
	var n int64
	for _, s := range p.shards {
		s.mu.Lock()
		n += s.corruption
		s.mu.Unlock()
	}
	return n
}

// Get pins page id and returns its buffer. The caller must Unpin it.
func (p *Pool) Get(id storage.PageID) ([]byte, error) { return p.get(id, p.charge.Load()) }

func (p *Pool) get(id storage.PageID, m *sim.Meter) ([]byte, error) {
	s := p.shardFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if f, ok := s.frames[id]; ok {
		s.hitLocked()
		f.pins++
		s.touchLocked(f)
		return f.buf, nil
	}
	f, err := s.admitLocked(id, true, m)
	if err != nil {
		return nil, err
	}
	f.pins = 1
	return f.buf, nil
}

// New allocates a fresh page on disk, pins it, and returns its ID and buffer.
// The frame starts dirty (it must reach disk eventually).
func (p *Pool) New() (storage.PageID, []byte, error) { return p.newPage(p.charge.Load()) }

func (p *Pool) newPage(m *sim.Meter) (storage.PageID, []byte, error) {
	id := p.disk.Allocate()
	s := p.shardFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	f, err := s.admitLocked(id, false, m)
	if err != nil {
		return 0, nil, err
	}
	f.pins = 1
	f.dirty = true
	return id, f.buf, nil
}

// Unpin releases one pin on page id, marking it dirty if the caller wrote to
// the buffer. Unpinning a page that is not resident or not pinned is a
// pin-discipline bug; rather than panicking (which would take down every
// concurrent session) or silently decrementing (which would corrupt pin
// counts and let a pinned page be evicted), the violation is recorded and the
// call becomes a deterministic no-op. See Misuses/MisuseError.
func (p *Pool) Unpin(id storage.PageID, dirty bool) {
	s := p.shardFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.frames[id]
	if !ok {
		s.recordMisuseLocked(fmt.Errorf("buffer: unpin of non-resident page %d", id))
		return
	}
	if f.pins <= 0 {
		s.recordMisuseLocked(fmt.Errorf("buffer: unpin of unpinned page %d", id))
		return
	}
	f.pins--
	if dirty {
		f.dirty = true
	}
}

// Free drops page id from the pool (discarding its contents) and releases the
// disk page. The page must be unpinned.
func (p *Pool) Free(id storage.PageID) error {
	s := p.shardFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if f, ok := s.frames[id]; ok {
		if f.pins > 0 {
			return fmt.Errorf("buffer: freeing pinned page %d", id)
		}
		s.retireLocked(f)
	}
	delete(s.sums, id)
	// A double Free surfaces here as the disk's "free of unallocated page"
	// error — returned, not panicked, and also recorded as misuse so stress
	// tests can assert none happened.
	if err := s.disk.Free(id); err != nil {
		s.recordMisuseLocked(err)
		return err
	}
	return nil
}

// Stage pre-fetches page id into the pool and marks it sticky so it survives
// eviction: the data-staging manipulation. It does not hold a pin.
func (p *Pool) Stage(id storage.PageID) error {
	s := p.shardFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.frames[id]
	if !ok {
		var err error
		f, err = s.admitLocked(id, true, p.charge.Load())
		if err != nil {
			return err
		}
	} else {
		s.hitLocked()
	}
	f.sticky = true
	return nil
}

// Unstage removes the sticky mark from page id if it is resident.
func (p *Pool) Unstage(id storage.PageID) {
	s := p.shardFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if f, ok := s.frames[id]; ok {
		f.sticky = false
	}
}

// StagedCount reports how many resident pages are sticky.
func (p *Pool) StagedCount() int {
	n := 0
	for _, s := range p.shards {
		s.mu.Lock()
		n += s.stagedCountLocked()
		s.mu.Unlock()
	}
	return n
}

// Contains reports whether page id is resident (used by tests and by the
// cost model's warmth estimate).
func (p *Pool) Contains(id storage.PageID) bool {
	s := p.shardFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.frames[id]
	return ok
}

// FlushAll writes every dirty resident page back to disk.
func (p *Pool) FlushAll() error {
	m := p.charge.Load()
	for _, s := range p.shards {
		s.mu.Lock()
		err := s.flushAllLocked(m)
		s.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// EvictAll empties the pool (after flushing), simulating a cold restart. Any
// pinned page makes this fail.
func (p *Pool) EvictAll() error {
	m := p.charge.Load()
	for _, s := range p.shards {
		s.mu.Lock()
		err := s.evictAllLocked(m)
		s.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// maxIORetries bounds how many times one logical page I/O is retried after a
// transient injected fault (each retry redraws the fault decision). At the
// acceptance-sweep ceiling of 5% per-op fault rate, eight retries leave a
// ~4e-11 chance of surfacing a transient fault per fetch — statistically
// never for pinned seeds. Real storage errors are never retried.
const maxIORetries = 8

// hitLocked records one fetch served from a resident frame.
func (s *shard) hitLocked() {
	s.hits++
	s.fetches++
	s.obsHits.Inc()
	s.obsFetches.Inc()
}

// headroomLocked counts frames claimable without evicting pinned or staged
// pages: free slots plus unpinned, non-sticky residents.
func (s *shard) headroomLocked() int {
	n := s.cap - len(s.frames)
	for _, f := range s.frames {
		if f.pins == 0 && !f.sticky {
			n++
		}
	}
	return n
}

// stagedCountLocked counts resident sticky pages.
func (s *shard) stagedCountLocked() int {
	n := 0
	for _, f := range s.frames {
		if f.sticky {
			n++
		}
	}
	return n
}

// recordMisuseLocked notes a pin-discipline violation.
func (s *shard) recordMisuseLocked(err error) {
	s.misuses++
	if s.misuseErr == nil {
		s.misuseErr = err
	}
	s.obsMisuses.Inc()
}

// flushAllLocked writes every dirty resident page of this shard to disk.
func (s *shard) flushAllLocked(m *sim.Meter) error {
	for _, f := range s.frames {
		if err := s.writeBackLocked(f, m); err != nil {
			return err
		}
	}
	return nil
}

// evictAllLocked empties this shard (after flushing), retiring every
// buffer. Any pinned page makes it fail.
func (s *shard) evictAllLocked(m *sim.Meter) error {
	for id, f := range s.frames {
		if f.pins > 0 {
			return fmt.Errorf("buffer: EvictAll with pinned page %d", id)
		}
		if err := s.writeBackLocked(f, m); err != nil {
			return err
		}
		s.retireLocked(f)
	}
	return nil
}

// retireLocked takes an unpinned frame out of the shard's table and LRU ring:
// it becomes the spare, or gives its buffer to slab.Bytes when the spare is
// taken.
func (s *shard) retireLocked(f *frame) {
	f.prev.next, f.next.prev = f.next, f.prev
	// Stale links would let the spare keep departed frames, and the buffers
	// they gave to the slab, reachable.
	f.prev, f.next = nil, nil
	delete(s.frames, f.id)
	if s.spare == nil {
		s.spare = f
		return
	}
	slab.Bytes.Give(f.buf)
	f.buf = nil
}

// admitLocked loads page id into a frame, evicting if necessary. The frame is
// the spare, else a new one with a buffer from slab.Bytes; either buffer holds
// an earlier page's bytes.
// If read is false the frame is zeroed (freshly allocated page); otherwise
// the disk read overwrites every byte, so a recycled buffer never leaks its
// previous page.
//
// Fault handling: a transient injected read error or a checksum mismatch
// (corrupted read) is retried up to maxIORetries times, each retry charging
// one extra simulated page read — retries cost time, exactly like a real
// disk's. An injected frame-exhaustion fault surfaces as a transient error
// for the caller's retry loop. All of this is dead code on the fault-free
// path: no injector means no extra draws, charges, or checks beyond the
// checksum compare, which is meter-neutral CPU.
func (s *shard) admitLocked(id storage.PageID, read bool, m *sim.Meter) (*frame, error) {
	for attempt := 0; ; attempt++ {
		fe := s.inj.FrameExhaustion(id)
		if fe == nil {
			break
		}
		if attempt >= maxIORetries {
			return nil, fmt.Errorf("buffer: no frame for page %d after %d retries: %w", id, maxIORetries, fe)
		}
		// Waiting out transient frame pressure costs simulated time.
		m.ChargePageRead(1)
		s.ioRetries++
		s.obsRetries.Inc()
	}
	if len(s.frames) >= s.cap {
		if err := s.evictOneLocked(m); err != nil {
			return nil, err
		}
	}
	f := s.spare
	s.spare = nil
	if f == nil {
		f = &frame{buf: slab.Bytes.Take(s.disk.PageSize())}
	}
	*f = frame{id: id, buf: f.buf}
	if !read {
		clear(f.buf)
	}
	if read {
		if err := s.readVerifiedLocked(id, f.buf, m); err != nil {
			s.spare = f
			return nil, err
		}
		s.misses++
		s.fetches++
		s.obsMisses.Inc()
		s.obsFetches.Inc()
		m.ChargePageRead(1)
		if extra, slow := s.inj.SlowIO(id); slow {
			m.ChargePageRead(int64(extra))
		}
	}
	s.pushFrontLocked(f)
	s.frames[id] = f
	return f, nil
}

// readVerifiedLocked reads page id into buf, verifying its checksum when one
// is on record and retrying transient faults with bounded attempts.
func (s *shard) readVerifiedLocked(id storage.PageID, buf []byte, m *sim.Meter) error {
	var lastErr error
	for attempt := 0; attempt <= maxIORetries; attempt++ {
		if attempt > 0 {
			// The failed attempt consumed disk time; charge it like a read.
			m.ChargePageRead(1)
			s.ioRetries++
			s.obsRetries.Inc()
		}
		err := s.disk.Read(id, buf)
		if err != nil {
			if !fault.IsTransient(err) {
				return err // real storage error: never mask it
			}
			lastErr = err
			continue
		}
		if sum, ok := s.sums[id]; ok && crc32.ChecksumIEEE(buf) != sum {
			s.corruption++
			s.obsDetectedCorrupt.Inc()
			lastErr = &fault.Error{Kind: fault.Corruption, Op: "verify", Page: id}
			continue
		}
		return nil
	}
	return fmt.Errorf("buffer: page %d unreadable after %d retries: %w", id, maxIORetries, lastErr)
}

// evictOneLocked removes the least recently used unpinned, non-sticky page.
func (s *shard) evictOneLocked(m *sim.Meter) error {
	for f := s.lru.prev; f != &s.lru; f = f.prev {
		if f.pins > 0 || f.sticky {
			continue
		}
		if err := s.writeBackLocked(f, m); err != nil {
			return err
		}
		s.retireLocked(f)
		return nil
	}
	return fmt.Errorf("buffer: all %d frames pinned or staged", s.cap)
}

// writeBackLocked flushes one dirty frame, retrying transient write faults.
func (s *shard) writeBackLocked(f *frame, m *sim.Meter) error {
	if !f.dirty {
		return nil
	}
	var lastErr error
	for attempt := 0; attempt <= maxIORetries; attempt++ {
		if attempt > 0 {
			m.ChargePageWrite(1) // failed attempt still consumed disk time
			s.ioRetries++
			s.obsRetries.Inc()
		}
		err := s.disk.Write(f.id, f.buf)
		if err != nil {
			if !fault.IsTransient(err) {
				return err // real storage error: never mask it
			}
			lastErr = err
			continue
		}
		// Record the checksum of what reached disk so the next fetch can
		// detect corruption in between.
		s.sums[f.id] = crc32.ChecksumIEEE(f.buf)
		f.dirty = false
		s.writes++
		s.obsWrites.Inc()
		m.ChargePageWrite(1)
		if s.durable {
			// The backend logged a full page image before acking: a durable
			// write-back is two physical writes, and the second is metered
			// here rather than inside storage so the meter remains the single
			// accounting point (DESIGN.md §1).
			s.obsDurableWrites.Inc()
			m.ChargePageWrite(1)
		}
		return nil
	}
	return fmt.Errorf("buffer: page %d unwritable after %d retries: %w", f.id, maxIORetries, lastErr)
}

// touchLocked moves a resident frame to the front of the LRU ring. A frame
// already there stays put: consecutive fetches of one page, as a scan in heap
// order makes, write no links.
func (s *shard) touchLocked(f *frame) {
	if s.lru.next == f {
		return
	}
	f.prev.next, f.next.prev = f.next, f.prev
	s.pushFrontLocked(f)
}

// pushFrontLocked links an unlinked frame in as the most recently used.
func (s *shard) pushFrontLocked(f *frame) {
	f.prev, f.next = &s.lru, s.lru.next
	s.lru.next.prev = f
	s.lru.next = f
}
