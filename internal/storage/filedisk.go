package storage

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
)

// WriteGate intercepts low-level file writes for crash-point injection. It is
// implemented by *fault.Crash (defined consumer-side here because fault
// already imports storage). BeforeWrite returns how many leading bytes of the
// write may still land (a torn prefix) and a terminal error once the backend
// is considered killed.
type WriteGate interface {
	BeforeWrite(size int) (allow int, err error)
}

// DurableDisk is the extension of Disk implemented by crash-safe backends:
// Commit marks a durability point carrying the engine's metadata blob,
// Checkpoint forces the WAL to be folded into the page file, Meta returns the
// last committed blob, and Close releases the file handles.
type DurableDisk interface {
	Disk
	Commit(meta []byte) (flushed int, err error)
	Checkpoint() (flushed int, err error)
	Meta() []byte
	Close() error
}

// FileConfig configures a FileDisk.
type FileConfig struct {
	// Path is the page file; the WAL lives at Path + ".wal".
	Path string
	// PageSize must match the engine's page size (0 means DefaultPageSize).
	// Reopening a file with a different page size is an error.
	PageSize int
	// CheckpointBytes triggers an automatic checkpoint when a Commit finds
	// the WAL at or above this size (0 means 4 MB). Checkpoints happen only
	// at commit points: folding uncommitted pages into the page file would
	// put bytes there that redo-only recovery cannot discard.
	CheckpointBytes int64
	// Sync fsyncs the page file and WAL at durability points. Off by default:
	// the test matrix models crashes at the write level, where everything
	// written before the kill is durable and the kill write itself is torn or
	// lost (see fault.Crash).
	Sync bool
	// Gate, when non-nil, sees every low-level file write (crash injection).
	Gate WriteGate
}

// RecoveryInfo describes what OpenFileDisk found and did.
type RecoveryInfo struct {
	// Recovered is true when an existing database was opened (as opposed to
	// a fresh initialization).
	Recovered bool
	// LastLSN is the last WAL record applied by replay.
	LastLSN uint64
	// AppliedRecords counts WAL records replayed (through the last commit).
	AppliedRecords int
	// DiscardedRecords counts valid records after the last commit point —
	// the uncommitted tail a crash left behind.
	DiscardedRecords int
	// TornTail is true when the WAL ended in a torn or corrupt frame.
	TornTail bool
	// Reinitialized is true when the files existed but held no committed
	// state (a crash during creation), so the database was re-created.
	Reinitialized bool
}

// FileDisk is the durable page-file backend: a real on-disk page file with a
// versioned superblock, fronted by a physical-redo WAL (wal.go). All mutation
// goes to the WAL first; the page file is only advanced by checkpoints, which
// run at commit points and atomically replace the WAL (write temp + rename).
// Recovery on open replays the WAL through the last commit record and
// discards the tail, so a statement either committed wholly or never
// happened — no undo log needed.
//
// FileDisk implements Disk, so the buffer pool, fault injector, and
// everything above them run unchanged on top of it.
type FileDisk struct {
	mu        sync.Mutex
	path      string
	walPath   string
	pageSize  int
	ckptBytes int64
	sync      bool
	gate      WriteGate

	data *os.File
	wal  *os.File

	pageAlloc
	pages   map[PageID]bool // currently allocated
	pending map[PageID][]byte
	meta    []byte
	lsn     uint64
	walOff  int64 // next WAL append offset == current WAL size

	reads       int64
	writes      int64
	fileWrites  int64 // gated low-level writes: the crash sweep's domain
	checkpoints int64
	recovery    RecoveryInfo
	failed      error // sticky after a crash or unrecoverable I/O error
}

var _ DurableDisk = (*FileDisk)(nil)

// maxWALPayload bounds a decoded record payload; real payloads are a page
// image, an allocator snapshot, or a metadata blob, all far below this.
const maxWALPayload = 1 << 28

// OpenFileDisk opens (or creates) the page file at cfg.Path, runs recovery,
// and checkpoints so the session starts with a truncated WAL.
func OpenFileDisk(cfg FileConfig) (*FileDisk, error) {
	pageSize := cfg.PageSize
	if pageSize == 0 {
		pageSize = DefaultPageSize
	}
	if pageSize < 64 {
		// invariant: the page size is chosen by the constructing code, never
		// by user input or file contents.
		panic("storage: page size too small")
	}
	ckpt := cfg.CheckpointBytes
	if ckpt == 0 {
		ckpt = 4 << 20
	}
	f := &FileDisk{
		path:      cfg.Path,
		walPath:   cfg.Path + ".wal",
		pageSize:  pageSize,
		ckptBytes: ckpt,
		sync:      cfg.Sync,
		gate:      cfg.Gate,
		pageAlloc: pageAlloc{next: 1},
		pages:     make(map[PageID]bool),
		pending:   make(map[PageID][]byte),
	}
	// A stray checkpoint temp means the rename never happened, so the old
	// WAL is still authoritative and the temp is garbage.
	_ = os.Remove(f.walPath + ".new")

	data, err := os.OpenFile(f.path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open page file: %w", err)
	}
	f.data = data
	if err := f.openLocked(); err != nil {
		_ = data.Close()
		if f.wal != nil {
			_ = f.wal.Close()
		}
		return nil, err
	}
	return f, nil
}

// openLocked classifies the on-disk state and dispatches to fresh
// initialization or recovery. Called once from OpenFileDisk; no concurrent
// access yet, the lock discipline starts after return.
func (f *FileDisk) openLocked() error {
	sb := make([]byte, superblockSize)
	_, sbReadErr := f.data.ReadAt(sb, 0)
	sbOK := sbReadErr == nil
	var sbPageSize int
	if sbOK {
		var err error
		sbPageSize, err = decodeSuperblock(sb)
		sbOK = err == nil
	}
	if sbOK && sbPageSize != f.pageSize {
		return fmt.Errorf("storage: page file has page size %d, engine configured %d", sbPageSize, f.pageSize)
	}

	walBytes, walReadErr := os.ReadFile(f.walPath)
	walOK := walReadErr == nil && decodeWALHeader(walBytes) == nil

	switch {
	case sbOK && walOK:
		return f.recoverLocked(walBytes)
	case !sbOK && walOK:
		// The superblock is written and synced before the WAL is created, so
		// a valid WAL under an invalid superblock means the page file itself
		// was damaged after the fact — refuse rather than silently rebuild.
		if walHasCommit(walBytes) {
			return errors.New("storage: superblock invalid but WAL holds committed state; refusing to reinitialize")
		}
		f.recovery.Reinitialized = walReadErr == nil || sbReadErr == nil
		return f.initLocked()
	case sbOK && !walOK:
		// The WAL header is written once at creation and afterwards only
		// replaced by an atomic rename of a fully written temp, so an
		// invalid header means creation crashed before the first record:
		// nothing was ever committed.
		f.recovery.Reinitialized = true
		return f.initLocked()
	default:
		// Neither file holds valid state: fresh directory or a crash while
		// writing the very first superblock.
		f.recovery.Reinitialized = sbReadErr == nil || walReadErr == nil
		return f.initLocked()
	}
}

// walHasCommit reports whether a WAL byte stream contains at least one valid
// commit (meta) record.
func walHasCommit(b []byte) bool {
	off := walHeaderSize
	for off < len(b) {
		rec, n, ok := decodeRecord(b[off:], maxWALPayload)
		if !ok {
			return false
		}
		if rec.typ == recMeta {
			return true
		}
		off += n
	}
	return false
}

// initLocked creates a fresh database: superblock first (synced), then an
// empty WAL. Ordering matters for crash classification — see openLocked.
func (f *FileDisk) initLocked() error {
	if err := f.data.Truncate(0); err != nil {
		return fmt.Errorf("storage: truncate page file: %w", err)
	}
	if err := f.writeRawLocked(f.data, encodeSuperblock(f.pageSize), 0); err != nil {
		return err
	}
	if err := f.data.Sync(); err != nil {
		return fmt.Errorf("storage: sync page file: %w", err)
	}
	wal, err := os.OpenFile(f.walPath, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("storage: open WAL: %w", err)
	}
	f.wal = wal
	if err := f.wal.Truncate(0); err != nil {
		return fmt.Errorf("storage: truncate WAL: %w", err)
	}
	if err := f.writeRawLocked(f.wal, encodeWALHeader(), 0); err != nil {
		return err
	}
	if err := f.wal.Sync(); err != nil {
		return fmt.Errorf("storage: sync WAL: %w", err)
	}
	f.walOff = walHeaderSize
	return nil
}

// recoverLocked replays a valid WAL through its last commit record, rebuilds
// the allocator and pending-page state, and checkpoints so the uncommitted
// tail is physically discarded.
func (f *FileDisk) recoverLocked(walBytes []byte) error {
	f.recovery.Recovered = true

	var recs []walRecord
	off := walHeaderSize
	for off < len(walBytes) {
		rec, n, ok := decodeRecord(walBytes[off:], maxWALPayload)
		if !ok {
			f.recovery.TornTail = true
			break
		}
		if len(recs) > 0 && rec.lsn != recs[len(recs)-1].lsn+1 {
			// A non-consecutive LSN cannot come from our own appends; treat
			// it like a torn tail and stop trusting the stream here.
			f.recovery.TornTail = true
			break
		}
		recs = append(recs, rec)
		off += n
	}
	lastMeta := -1
	for i, rec := range recs {
		if rec.typ == recMeta {
			lastMeta = i
		}
	}
	f.recovery.DiscardedRecords = len(recs) - (lastMeta + 1)

	for i := 0; i <= lastMeta; i++ {
		rec := recs[i]
		switch rec.typ {
		case recAllocState:
			next, free, err := decodeAllocState(rec.payload)
			if err != nil {
				return err
			}
			f.pageAlloc = pageAlloc{next: next, free: free}
			f.pages = make(map[PageID]bool)
			f.pending = make(map[PageID][]byte)
			inFree := make(map[PageID]bool, len(free))
			for _, id := range free {
				inFree[id] = true
			}
			// Allocator invariant: every ID below next is either free or
			// allocated, so the snapshot needs no explicit allocated set.
			for id := PageID(1); id < next; id++ {
				if !inFree[id] {
					f.pages[id] = true
				}
			}
		case recAlloc:
			if err := f.replayAllocLocked(rec.page); err != nil {
				return err
			}
		case recFree:
			if !f.pages[rec.page] {
				return fmt.Errorf("storage: WAL frees unallocated page %d", rec.page)
			}
			delete(f.pages, rec.page)
			delete(f.pending, rec.page)
			f.release(rec.page)
		case recWrite:
			if !f.pages[rec.page] {
				return fmt.Errorf("storage: WAL writes unallocated page %d", rec.page)
			}
			if len(rec.payload) != f.pageSize {
				return fmt.Errorf("storage: WAL page image is %d bytes, want %d", len(rec.payload), f.pageSize)
			}
			f.pending[rec.page] = rec.payload
		case recMeta:
			f.meta = rec.payload
		default:
			return fmt.Errorf("storage: unknown WAL record type %d", rec.typ)
		}
		f.recovery.AppliedRecords++
		f.recovery.LastLSN = rec.lsn
	}
	// Resume LSNs after the highest one seen, committed or not: the old WAL
	// stays on disk until the recovery checkpoint's rename, and if a crash
	// lands before that rename the next recovery must never see fresh
	// records aliasing the LSNs of the discarded tail.
	if len(recs) > 0 {
		f.lsn = recs[len(recs)-1].lsn
	}

	wal, err := os.OpenFile(f.walPath, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("storage: open WAL: %w", err)
	}
	f.wal = wal
	f.walOff = int64(off)
	// Fold the replayed state into the page file and truncate the WAL, so
	// the discarded tail is gone physically, not just logically.
	if _, err := f.checkpointLocked(); err != nil {
		return err
	}
	return nil
}

// replayAllocLocked redoes one logged allocation.
func (f *FileDisk) replayAllocLocked(id PageID) error {
	if !f.claim(id) {
		return fmt.Errorf("storage: WAL allocates unexpected page %d", id)
	}
	if f.pages[id] {
		return fmt.Errorf("storage: WAL double-allocates page %d", id)
	}
	f.pages[id] = true
	f.pending[id] = nil
	return nil
}

// writeRawLocked performs one gated low-level file write. On a crash the allowed
// torn prefix still lands, then the sticky failure is recorded.
func (f *FileDisk) writeRawLocked(file *os.File, b []byte, off int64) error {
	f.fileWrites++
	allow := len(b)
	if f.gate != nil {
		var gerr error
		allow, gerr = f.gate.BeforeWrite(len(b))
		if gerr != nil {
			if allow > 0 {
				if _, werr := file.WriteAt(b[:allow], off); werr != nil {
					f.failed = werr
					return werr
				}
			}
			f.failed = gerr
			return gerr
		}
	}
	if _, err := file.WriteAt(b[:allow], off); err != nil {
		f.failed = err
		return err
	}
	return nil
}

// appendWALLocked frames rec, appends it, and advances the LSN and WAL offset.
func (f *FileDisk) appendWALLocked(rec walRecord) error {
	b := encodeRecord(rec)
	if err := f.writeRawLocked(f.wal, b, f.walOff); err != nil {
		return err
	}
	f.walOff += int64(len(b))
	f.lsn = rec.lsn
	return nil
}

// PageSize reports the backend's page size.
func (f *FileDisk) PageSize() int { return f.pageSize }

// Allocate reserves a zeroed page, reusing the most recently freed ID. The
// Disk contract gives Allocate no error return; if logging the allocation
// fails the backend is already dead and every subsequent data operation
// reports the sticky failure.
func (f *FileDisk) Allocate() PageID {
	f.mu.Lock()
	defer f.mu.Unlock()
	id := f.take()
	f.pages[id] = true
	f.pending[id] = nil // nil image = zeros; a reused ID must not leak old file bytes
	if f.failed == nil {
		_ = f.appendWALLocked(walRecord{lsn: f.lsn + 1, typ: recAlloc, page: id})
	}
	return id
}

// Read copies page id into buf, preferring the pending (logged but not yet
// checkpointed) image over the page file.
func (f *FileDisk) Read(id PageID, buf []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failed != nil {
		return f.failed
	}
	if !f.pages[id] {
		return fmt.Errorf("storage: read of unallocated page %d", id)
	}
	if len(buf) != f.pageSize {
		return fmt.Errorf("storage: read buffer is %d bytes, want %d", len(buf), f.pageSize)
	}
	if p, ok := f.pending[id]; ok {
		if p == nil {
			for i := range buf {
				buf[i] = 0
			}
		} else {
			copy(buf, p)
		}
		f.reads++
		return nil
	}
	n, err := f.data.ReadAt(buf, int64(id)*int64(f.pageSize))
	if err != nil && n < len(buf) {
		// Short read past EOF: the page was allocated but the file was never
		// extended that far (checkpoint flushes make this rare); the
		// remainder reads as zeros, matching a fresh page.
		for i := n; i < len(buf); i++ {
			buf[i] = 0
		}
	}
	f.reads++
	return nil
}

// Write logs a full page image to the WAL; the page file itself is only
// advanced at checkpoints.
func (f *FileDisk) Write(id PageID, buf []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failed != nil {
		return f.failed
	}
	if !f.pages[id] {
		return fmt.Errorf("storage: write to unallocated page %d", id)
	}
	if len(buf) != f.pageSize {
		return fmt.Errorf("storage: write buffer is %d bytes, want %d", len(buf), f.pageSize)
	}
	img := make([]byte, f.pageSize)
	copy(img, buf)
	if err := f.appendWALLocked(walRecord{lsn: f.lsn + 1, typ: recWrite, page: id, payload: img}); err != nil {
		return err
	}
	f.pending[id] = img
	f.writes++
	return nil
}

// Free releases page id and queues it for reuse.
func (f *FileDisk) Free(id PageID) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failed != nil {
		return f.failed
	}
	if !f.pages[id] {
		return fmt.Errorf("storage: free of unallocated page %d", id)
	}
	if err := f.appendWALLocked(walRecord{lsn: f.lsn + 1, typ: recFree, page: id}); err != nil {
		return err
	}
	delete(f.pages, id)
	delete(f.pending, id)
	f.release(id)
	return nil
}

// Allocated reports the number of live pages.
func (f *FileDisk) Allocated() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.pages)
}

// Stats reports cumulative page-level reads and writes.
func (f *FileDisk) Stats() (reads, writes int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.reads, f.writes
}

// Commit appends a commit record carrying the engine's metadata blob. This
// is the durability point: recovery replays the WAL exactly through the last
// such record. When the WAL has outgrown CheckpointBytes the commit also
// checkpoints; the returned count is pages flushed to the page file (0 when
// no checkpoint ran).
func (f *FileDisk) Commit(meta []byte) (flushed int, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failed != nil {
		return 0, f.failed
	}
	blob := make([]byte, len(meta))
	copy(blob, meta)
	if err := f.appendWALLocked(walRecord{lsn: f.lsn + 1, typ: recMeta, payload: blob}); err != nil {
		return 0, err
	}
	f.meta = blob
	if f.sync {
		if err := f.wal.Sync(); err != nil {
			f.failed = err
			return 0, err
		}
	}
	if f.walOff >= f.ckptBytes {
		return f.checkpointLocked()
	}
	return 0, nil
}

// Checkpoint forces the WAL to be folded into the page file and truncated.
func (f *FileDisk) Checkpoint() (flushed int, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failed != nil {
		return 0, f.failed
	}
	return f.checkpointLocked()
}

// checkpointLocked flushes every pending page image into the page file, then
// atomically replaces the WAL with a minimal one (allocator snapshot + the
// last commit record). The old WAL stays authoritative until the rename, and
// full-image redo is idempotent, so a crash anywhere in here recovers
// correctly from either generation of the log.
func (f *FileDisk) checkpointLocked() (flushed int, err error) {
	ids := make([]PageID, 0, len(f.pending))
	for id := range f.pending {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	zero := make([]byte, f.pageSize)
	for _, id := range ids {
		img := f.pending[id]
		if img == nil {
			img = zero
		}
		if err := f.writeRawLocked(f.data, img, int64(id)*int64(f.pageSize)); err != nil {
			return flushed, err
		}
		flushed++
	}
	if f.sync {
		if err := f.data.Sync(); err != nil {
			f.failed = err
			return flushed, err
		}
	}

	newPath := f.walPath + ".new"
	tmp, err := os.OpenFile(newPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return flushed, fmt.Errorf("storage: open WAL temp: %w", err)
	}
	off := int64(0)
	write := func(b []byte) error {
		if err := f.writeRawLocked(tmp, b, off); err != nil {
			return err
		}
		off += int64(len(b))
		return nil
	}
	if err := write(encodeWALHeader()); err != nil {
		_ = tmp.Close()
		return flushed, err
	}
	if err := write(encodeRecord(walRecord{
		lsn: f.lsn + 1, typ: recAllocState,
		payload: encodeAllocState(f.next, f.free),
	})); err != nil {
		_ = tmp.Close()
		return flushed, err
	}
	if err := write(encodeRecord(walRecord{lsn: f.lsn + 2, typ: recMeta, payload: f.meta})); err != nil {
		_ = tmp.Close()
		return flushed, err
	}
	if f.sync {
		if err := tmp.Sync(); err != nil {
			_ = tmp.Close()
			f.failed = err
			return flushed, err
		}
	}
	if err := tmp.Close(); err != nil {
		f.failed = err
		return flushed, err
	}
	// The rename is the atomic switch between log generations; gate it as a
	// (zero-byte) write so the crash sweep covers the instant before it.
	f.fileWrites++
	if f.gate != nil {
		if _, gerr := f.gate.BeforeWrite(0); gerr != nil {
			f.failed = gerr
			return flushed, gerr
		}
	}
	if err := os.Rename(newPath, f.walPath); err != nil {
		f.failed = err
		return flushed, err
	}
	if err := f.wal.Close(); err != nil {
		f.failed = err
		return flushed, err
	}
	wal, err := os.OpenFile(f.walPath, os.O_RDWR, 0o644)
	if err != nil {
		f.failed = err
		return flushed, fmt.Errorf("storage: reopen WAL: %w", err)
	}
	f.wal = wal
	f.lsn += 2
	f.walOff = off
	f.pending = make(map[PageID][]byte)
	f.checkpoints++
	return flushed, nil
}

// Meta returns a copy of the last committed metadata blob (nil before the
// first commit).
func (f *FileDisk) Meta() []byte {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.meta == nil {
		return nil
	}
	out := make([]byte, len(f.meta))
	copy(out, f.meta)
	return out
}

// Close releases the file handles. It does not commit — the engine owns
// commit points.
func (f *FileDisk) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	var first error
	if f.data != nil {
		if err := f.data.Close(); err != nil && first == nil {
			first = err
		}
		f.data = nil
	}
	if f.wal != nil {
		if err := f.wal.Close(); err != nil && first == nil {
			first = err
		}
		f.wal = nil
	}
	if f.failed == nil {
		f.failed = errors.New("storage: file disk closed")
	}
	return first
}

// Recovery reports what OpenFileDisk found.
func (f *FileDisk) Recovery() RecoveryInfo {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.recovery
}

// LastLSN reports the LSN of the last appended (or recovered) record.
func (f *FileDisk) LastLSN() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.lsn
}

// AllocatedIDs returns the live page IDs in ascending order; recovery uses
// it to garbage-collect pages no committed structure references.
func (f *FileDisk) AllocatedIDs() []PageID {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]PageID, 0, len(f.pages))
	for id := range f.pages {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// FileWrites reports the number of gated low-level file writes so far — the
// sweep domain for the crash-at-any-write matrix.
func (f *FileDisk) FileWrites() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fileWrites
}

// Checkpoints reports how many checkpoints have run (including the one at
// the end of recovery).
func (f *FileDisk) Checkpoints() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.checkpoints
}

// WALSize reports the current WAL size in bytes.
func (f *FileDisk) WALSize() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.walOff
}

// HighWater reports the highest PageID ever handed out.
func (f *FileDisk) HighWater() PageID {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.next - 1
}
