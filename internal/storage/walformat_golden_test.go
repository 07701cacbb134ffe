package storage

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"strings"
	"testing"

	"specdb/internal/golden"
)

// TestWALFormatGolden pins the serialized on-disk layout: the page-file
// superblock, the WAL header, and one record frame per record type. These
// bytes are a compatibility contract — existing databases are opened by
// decoding exactly these layouts.
//
// If this test fails because you changed an encoder, DO NOT just regenerate
// the golden file: bump superblockVersion (for superblock changes) or
// walVersion (for WAL header/record changes) in wal.go so old files are
// rejected with a clear error instead of being misread, THEN regenerate with
//
//	go test ./internal/storage -run TestWALFormatGolden -update
func TestWALFormatGolden(t *testing.T) {
	var b strings.Builder
	dump := func(name string, data []byte) {
		fmt.Fprintf(&b, "%s (%d bytes)\n%s\n", name, len(data), hex.Dump(data))
	}

	dump("superblock v1 pageSize=4096", encodeSuperblock(4096))
	dump("wal header v1", encodeWALHeader())

	dump("recAlloc lsn=7 page=3", encodeRecord(walRecord{lsn: 7, typ: recAlloc, page: 3}))
	dump("recFree lsn=8 page=3", encodeRecord(walRecord{lsn: 8, typ: recFree, page: 3}))
	dump("recWrite lsn=9 page=5 payload=16B",
		encodeRecord(walRecord{lsn: 9, typ: recWrite, page: 5, payload: []byte("0123456789abcdef")}))
	dump("recMeta lsn=10 payload=json",
		encodeRecord(walRecord{lsn: 10, typ: recMeta, payload: []byte(`{"v":1}`)}))
	dump("recAllocState lsn=11 next=6 free=[4,2]",
		encodeRecord(walRecord{lsn: 11, typ: recAllocState, payload: encodeAllocState(6, []PageID{4, 2})}))

	if !golden.Check(t, filepath.Join("testdata", "walformat.golden"), b.String()) {
		t.Fatal("on-disk WAL/superblock layout changed.\n" +
			"This breaks opening existing databases. Bump superblockVersion or walVersion\n" +
			"in wal.go so old files fail with a clear version error, then regenerate\n" +
			"the golden with -update.")
	}
}

// TestSuperblockVersionRejected pins that a future-versioned superblock is
// refused rather than misread.
func TestSuperblockVersionRejected(t *testing.T) {
	forged := encodeSuperblock(4096)
	// Superblock layout: magic[8] version[4] pageSize[4] crc[4]. Forge a
	// higher version and refresh the CRC so only the version check can fail.
	binary.LittleEndian.PutUint32(forged[8:12], superblockVersion+1)
	binary.LittleEndian.PutUint32(forged[16:20], crc32.ChecksumIEEE(forged[0:16]))
	if _, err := decodeSuperblock(forged); err == nil {
		t.Fatal("future superblock version accepted")
	} else if !strings.Contains(err.Error(), "version") {
		t.Fatalf("error %q does not mention the version mismatch", err)
	}
}
