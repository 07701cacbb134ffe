package btree

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"specdb/internal/radix"
	"specdb/internal/slab"
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

// SortEntries orders entries by (key, RID), the tree's internal order.
//
// Entries whose keys are all 8 bytes (tuple.EncodeKey of an int, date or
// float) and that arrive in ascending RID order — CreateIndex's heap-scan
// order — are sorted in linear time by their keys as integers: radix.Sort is
// stable, so equal keys stay in RID order, which is (key, RID) order. Any
// other input, string keys or RIDs out of order, is comparison-sorted.
func SortEntries(entries []Entry) {
	if len(entries) < 2 {
		return
	}
	if !imageSortable(entries) {
		slices.SortFunc(entries, compareEntries)
		return
	}
	keys := slab.Uint64s.Take(len(entries))
	perm := slab.Uint64s.Take(len(entries))
	for i, e := range entries {
		keys[i] = binary.BigEndian.Uint64(e.Key)
		perm[i] = uint64(i)
	}
	radix.Sort(keys, perm)
	permute(entries, perm)
	slab.Uint64s.Give(keys)
	slab.Uint64s.Give(perm)
}

// imageSortable reports whether every key is 8 bytes and the RIDs ascend.
func imageSortable(entries []Entry) bool {
	for i, e := range entries {
		if len(e.Key) != 8 || i > 0 && compareRID(entries[i-1].RID, e.RID) > 0 {
			return false
		}
	}
	return true
}

// permute rearranges entries in place so that entry i is the one that stood
// at perm[i], following each cycle of the permutation once; perm is consumed
// (every element ends equal to its index).
func permute(entries []Entry, perm []uint64) {
	for i := range entries {
		if perm[i] == uint64(i) {
			continue
		}
		held := entries[i]
		j := i
		for {
			from := int(perm[j])
			perm[j] = uint64(j)
			if from == i {
				entries[j] = held
				break
			}
			entries[j] = entries[from]
			j = from
		}
	}
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

// BulkLoad builds the tree bottom-up from sorted entries (see SortEntries).
// The tree must be empty. Bulk loading writes each page exactly once, unlike
// repeated Insert which rewrites node pages, so index builds cost O(pages)
// I/O — this is what a real engine's CREATE INDEX does.
func (t *BTree) BulkLoad(entries []Entry) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.root == 0 {
		return fmt.Errorf("btree: bulk load into dropped tree")
	}
	if t.entries != 0 {
		return fmt.Errorf("btree: bulk load into non-empty tree")
	}
	if len(entries) == 0 {
		return nil
	}
	for i := 1; i < len(entries); i++ {
		if entryOrder(entries[i-1], entries[i]) > 0 {
			return fmt.Errorf("btree: bulk load entries not sorted at %d", i)
		}
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

	// Build the leaf level. A node fills until one more entry would overflow
	// the page; its size is a running sum of nodeSize's own terms rather than
	// nodeSize over the node per entry, so every split lands where it did.
	var level []levelNode
	// A leaf of 8-byte keys holds a fixed number of entries, so one
	// allocation per slice holds any leaf instead of a doubling series per
	// build; for keys of other widths the first key's size is a hint.
	perLeaf := min(len(entries), (t.capacity-nodeHeaderSize)/entrySize(true, entries[0].Key))
	leaf := node{leaf: true, keys: make([][]byte, 0, perLeaf), rids: make([]storage.RID, 0, perLeaf)}
	size := nodeHeaderSize
	flushLeaf := func() error {
		id, buf, err := t.pool.New()
		if err != nil {
			return err
		}
		t.pages = append(t.pages, id)
		writeNode(buf, &leaf)
		t.pool.Unpin(id, true)
		level = append(level, levelNode{id: id, firstKey: leaf.keys[0]})
		return nil
	}
	for _, e := range entries {
		if size += entrySize(true, e.Key); size > t.capacity {
			// Would overflow: flush without this entry, restart with it.
			if err := flushLeaf(); err != nil {
				return err
			}
			leaf.keys, leaf.rids = leaf.keys[:0], leaf.rids[:0]
			size = nodeHeaderSize + entrySize(true, e.Key)
		}
		leaf.keys = append(leaf.keys, e.Key)
		leaf.rids = append(leaf.rids, e.RID)
	}
	if err := flushLeaf(); err != nil {
		return err
	}
	// Chain the leaves: the pointer is a fixed-width header field, patched in
	// place rather than through a decode and re-encode of every entry.
	for i := 0; i < len(level)-1; i++ {
		buf, err := t.pool.Get(level[i].id)
		if err != nil {
			return err
		}
		setLeafNext(buf, level[i+1].id)
		t.pool.Unpin(level[i].id, true)
	}

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
	t.entries = int64(len(entries))
	return nil
}
