package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// On-disk formats for the durable backend (DESIGN.md §12). Two files:
//
//   - the page file: page 0's byte range holds the superblock, pages 1..N are
//     raw page images at offset id*pageSize;
//   - the WAL: a fixed header followed by CRC-framed, LSN-stamped physical
//     redo records.
//
// Both carry explicit version numbers. Any change to these layouts must bump
// superblockVersion / walVersion and regenerate the golden file in
// walformat_golden_test.go — the golden test exists to make silent format
// drift impossible.

const (
	superblockMagic   = "SPECDBPF" // page file
	walMagic          = "SPECDBWL" // write-ahead log
	superblockVersion = 1
	walVersion        = 1

	// superblockSize is the encoded superblock length: magic, version,
	// pageSize, CRC. The superblock owns all of page 0's byte range; the rest
	// is zero.
	superblockSize = 8 + 4 + 4 + 4

	// walHeaderSize is magic + version + CRC.
	walHeaderSize = 8 + 4 + 4

	// recHeaderSize frames every WAL record: LSN, type, pageID, payload
	// length. A CRC32-IEEE over header+payload follows the payload.
	recHeaderSize = 8 + 1 + 8 + 4
	recTrailerLen = 4
)

// WAL record types. Replay applies records in LSN order, but only up to the
// last recMeta — a meta record IS the commit point, so everything after it is
// an uncommitted tail and is discarded (redo-only recovery, no undo needed).
const (
	recAlloc      byte = 1 // page allocated (ID in header, empty payload)
	recFree       byte = 2 // page freed
	recWrite      byte = 3 // full page image (payload = pageSize bytes)
	recMeta       byte = 4 // commit: engine metadata blob (catalog + profile)
	recAllocState byte = 5 // checkpoint head: allocator snapshot (next + free list)
)

func encodeSuperblock(pageSize int) []byte {
	b := make([]byte, superblockSize)
	copy(b[0:8], superblockMagic)
	binary.LittleEndian.PutUint32(b[8:12], superblockVersion)
	binary.LittleEndian.PutUint32(b[12:16], uint32(pageSize))
	binary.LittleEndian.PutUint32(b[16:20], crc32.ChecksumIEEE(b[0:16]))
	return b
}

// decodeSuperblock validates a superblock and returns its page size. An
// invalid superblock is not automatically corruption: creation writes it
// first, so a torn superblock with no committed WAL state just means the
// crash happened before the database ever existed.
func decodeSuperblock(b []byte) (pageSize int, err error) {
	if len(b) < superblockSize {
		return 0, fmt.Errorf("storage: superblock truncated (%d bytes)", len(b))
	}
	if string(b[0:8]) != superblockMagic {
		return 0, fmt.Errorf("storage: bad superblock magic %q", b[0:8])
	}
	if got := binary.LittleEndian.Uint32(b[16:20]); got != crc32.ChecksumIEEE(b[0:16]) {
		return 0, fmt.Errorf("storage: superblock CRC mismatch")
	}
	if v := binary.LittleEndian.Uint32(b[8:12]); v != superblockVersion {
		return 0, fmt.Errorf("storage: superblock version %d, want %d", v, superblockVersion)
	}
	return int(binary.LittleEndian.Uint32(b[12:16])), nil
}

func encodeWALHeader() []byte {
	b := make([]byte, walHeaderSize)
	copy(b[0:8], walMagic)
	binary.LittleEndian.PutUint32(b[8:12], walVersion)
	binary.LittleEndian.PutUint32(b[12:16], crc32.ChecksumIEEE(b[0:12]))
	return b
}

func decodeWALHeader(b []byte) error {
	if len(b) < walHeaderSize {
		return fmt.Errorf("storage: WAL header truncated (%d bytes)", len(b))
	}
	if string(b[0:8]) != walMagic {
		return fmt.Errorf("storage: bad WAL magic %q", b[0:8])
	}
	if got := binary.LittleEndian.Uint32(b[12:16]); got != crc32.ChecksumIEEE(b[0:12]) {
		return fmt.Errorf("storage: WAL header CRC mismatch")
	}
	if v := binary.LittleEndian.Uint32(b[8:12]); v != walVersion {
		return fmt.Errorf("storage: WAL version %d, want %d", v, walVersion)
	}
	return nil
}

// walRecord is one decoded redo record.
type walRecord struct {
	lsn     uint64
	typ     byte
	page    PageID
	payload []byte
}

// encodeRecord frames a record: header, payload, CRC32-IEEE trailer over
// everything before the trailer.
func encodeRecord(r walRecord) []byte {
	b := make([]byte, recHeaderSize+len(r.payload)+recTrailerLen)
	binary.LittleEndian.PutUint64(b[0:8], r.lsn)
	b[8] = r.typ
	binary.LittleEndian.PutUint64(b[9:17], uint64(r.page))
	binary.LittleEndian.PutUint32(b[17:21], uint32(len(r.payload)))
	copy(b[recHeaderSize:], r.payload)
	crc := crc32.ChecksumIEEE(b[:recHeaderSize+len(r.payload)])
	binary.LittleEndian.PutUint32(b[recHeaderSize+len(r.payload):], crc)
	return b
}

// decodeRecord reads one record from b. It returns the record, the number of
// bytes consumed, and ok=false for any framing violation (short buffer, bad
// CRC, absurd length) — which recovery treats as the torn end of the log, not
// an error.
func decodeRecord(b []byte, maxPayload int) (rec walRecord, n int, ok bool) {
	if len(b) < recHeaderSize+recTrailerLen {
		return walRecord{}, 0, false
	}
	plen := int(binary.LittleEndian.Uint32(b[17:21]))
	if plen < 0 || plen > maxPayload {
		return walRecord{}, 0, false
	}
	total := recHeaderSize + plen + recTrailerLen
	if len(b) < total {
		return walRecord{}, 0, false
	}
	want := binary.LittleEndian.Uint32(b[recHeaderSize+plen : total])
	if crc32.ChecksumIEEE(b[:recHeaderSize+plen]) != want {
		return walRecord{}, 0, false
	}
	rec = walRecord{
		lsn:  binary.LittleEndian.Uint64(b[0:8]),
		typ:  b[8],
		page: PageID(binary.LittleEndian.Uint64(b[9:17])),
	}
	if plen > 0 {
		rec.payload = make([]byte, plen)
		copy(rec.payload, b[recHeaderSize:recHeaderSize+plen])
	}
	return rec, total, true
}

// encodeAllocState serializes the allocator snapshot carried by a checkpoint
// head record: the next-unused PageID and the free list in stack order.
func encodeAllocState(next PageID, free []PageID) []byte {
	b := make([]byte, 8+4+8*len(free))
	binary.LittleEndian.PutUint64(b[0:8], uint64(next))
	binary.LittleEndian.PutUint32(b[8:12], uint32(len(free)))
	for i, id := range free {
		binary.LittleEndian.PutUint64(b[12+8*i:], uint64(id))
	}
	return b
}

func decodeAllocState(b []byte) (next PageID, free []PageID, err error) {
	if len(b) < 12 {
		return 0, nil, fmt.Errorf("storage: alloc-state record truncated")
	}
	next = PageID(binary.LittleEndian.Uint64(b[0:8]))
	n := int(binary.LittleEndian.Uint32(b[8:12]))
	if len(b) != 12+8*n {
		return 0, nil, fmt.Errorf("storage: alloc-state record length mismatch")
	}
	free = make([]PageID, 0, n)
	for i := 0; i < n; i++ {
		free = append(free, PageID(binary.LittleEndian.Uint64(b[12+8*i:])))
	}
	return next, free, nil
}
