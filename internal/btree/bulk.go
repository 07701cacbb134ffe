package btree

import (
	"bytes"
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

// SortEntries orders entries by (key, RID), the tree's internal order.
func SortEntries(entries []Entry) { slices.SortFunc(entries, compareEntries) }

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
		if compareEntries(entries[i-1], entries[i]) > 0 {
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
	var leaf node
	leaf.leaf = true
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
