package btree

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"specdb/internal/storage"
)

// Entry is one (key, RID) pair for bulk loading.
type Entry struct {
	Key []byte
	RID storage.RID
}

// compareEntries is the tree's internal order: by key, then RID.
func compareEntries(a, b Entry) int {
	if c := bytes.Compare(a.Key, b.Key); c != 0 {
		return c
	}
	return compareRID(a.RID, b.RID)
}

// SortEntries orders entries by (key, RID), the tree's internal order, for a
// build whose keys are not 8-byte images: an index on a string column. A
// numeric column's build sorts its images instead (stats.Images) and loads
// them with BulkLoadImages.
func SortEntries(entries []Entry) {
	slices.SortFunc(entries, compareEntries)
}

// entryOrder is compareEntries with two 8-byte keys compared as the integers
// they encode, which is the order their bytes compare in: BulkLoad's check.
func entryOrder(a, b Entry) int {
	if len(a.Key) != 8 || len(b.Key) != 8 {
		return compareEntries(a, b)
	}
	if c := cmp.Compare(binary.BigEndian.Uint64(a.Key), binary.BigEndian.Uint64(b.Key)); c != 0 {
		return c
	}
	return compareRID(a.RID, b.RID)
}

// BulkLoad builds the tree bottom-up from entries sorted by (key, RID) (see
// SortEntries). The tree must be empty. Bulk loading writes each page exactly
// once, unlike repeated Insert which rewrites node pages, so index builds cost
// O(pages) I/O — this is what a real engine's CREATE INDEX does.
func (t *BTree) BulkLoad(entries []Entry) error {
	for i := 1; i < len(entries); i++ {
		if entryOrder(entries[i-1], entries[i]) > 0 {
			return fmt.Errorf("btree: bulk load entries not sorted at %d", i)
		}
	}
	return t.bulkLoad(len(entries), func(i int) ([]byte, storage.RID) { return entries[i].Key, entries[i].RID })
}

// BulkLoadImages is BulkLoad of 8-byte keys given as the integers they encode
// (tuple.KeyBitsOf), each beside its RID packed by storage.RID.Bits: keys
// ascending, and RIDs ascending among equal keys — the order a stable radix
// sort of a column read in heap order leaves.
func (t *BTree) BulkLoadImages(keys, rids []uint64) error {
	if len(keys) != len(rids) {
		return fmt.Errorf("btree: bulk load of %d keys with %d RIDs", len(keys), len(rids))
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] > keys[i] || keys[i-1] == keys[i] && rids[i-1] > rids[i] {
			return fmt.Errorf("btree: bulk load entries not sorted at %d", i)
		}
	}
	var key [8]byte
	return t.bulkLoad(len(keys), func(i int) ([]byte, storage.RID) {
		binary.BigEndian.PutUint64(key[:], keys[i])
		return key[:], storage.RIDOfBits(rids[i])
	})
}

// bulkLoad builds the tree from n sorted entries, the i-th being at(i). The
// key at returns is copied before the next call, so at may reuse its bytes.
func (t *BTree) bulkLoad(n int, at func(i int) ([]byte, storage.RID)) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.root == 0 {
		return fmt.Errorf("btree: bulk load into dropped tree")
	}
	if t.entries != 0 {
		return fmt.Errorf("btree: bulk load into non-empty tree")
	}
	if n == 0 {
		return nil
	}
	// Replace the empty root; fresh pages are allocated level by level.
	if err := t.pool.Free(t.root); err != nil {
		return err
	}
	t.pages = t.pages[:0]

	type levelNode struct {
		id       storage.PageID
		firstKey []byte
	}

	// Build the leaf level. A leaf takes its page when it starts, so the leaf
	// before it is written once, its successor's id already in its header, and
	// nothing is read back; pages are still taken in leaf order. Each entry is
	// serialized into the pinned page as it comes. A leaf fills until one more
	// entry would overflow the page, its size a running sum of entrySize.
	var level []levelNode
	var firsts []byte // every leaf's first key, back to back
	var id storage.PageID
	var buf []byte
	count, off, size := 0, 0, 0
	for i := 0; i < n; i++ {
		key, rid := at(i)
		es := entrySize(true, key)
		if nodeHeaderSize+es > t.capacity {
			if buf != nil {
				t.pool.Unpin(id, false)
			}
			return fmt.Errorf("btree: a key of %d bytes does not fit a page", len(key))
		}
		if size += es; buf == nil || size > t.capacity {
			next, nbuf, err := t.pool.New()
			if err != nil {
				if buf != nil {
					t.pool.Unpin(id, false)
				}
				return err
			}
			t.pages = append(t.pages, next)
			if buf != nil {
				putHeader(buf, true, count, next)
				t.pool.Unpin(id, true)
			}
			id, buf = next, nbuf
			count, off, size = 0, nodeHeaderSize, nodeHeaderSize+es
			firsts = append(firsts, key...)
			level = append(level, levelNode{id: id, firstKey: firsts[len(firsts)-len(key) : len(firsts) : len(firsts)]})
		}
		off = putLeafEntry(buf, off, key, rid)
		count++
	}
	putHeader(buf, true, count, 0)
	t.pool.Unpin(id, true)

	// Build internal levels until one node remains.
	t.height = 1
	for len(level) > 1 {
		t.height++
		var parent node
		var next []levelNode
		var firstChildKey []byte
		size := nodeHeaderSize
		flushInternal := func() error {
			id, buf, err := t.pool.New()
			if err != nil {
				return err
			}
			t.pages = append(t.pages, id)
			writeNode(buf, &parent)
			t.pool.Unpin(id, true)
			next = append(next, levelNode{id: id, firstKey: firstChildKey})
			return nil
		}
		for _, child := range level {
			if len(parent.children) == 0 {
				parent.children = append(parent.children, child.id)
				firstChildKey = child.firstKey
				continue
			}
			if size += entrySize(false, child.firstKey); size > t.capacity {
				if err := flushInternal(); err != nil {
					return err
				}
				parent = node{children: []storage.PageID{child.id}}
				firstChildKey = child.firstKey
				size = nodeHeaderSize
				continue
			}
			parent.keys = append(parent.keys, child.firstKey)
			parent.children = append(parent.children, child.id)
		}
		if err := flushInternal(); err != nil {
			return err
		}
		level = next
	}
	t.root = level[0].id
	t.entries = int64(n)
	return nil
}
