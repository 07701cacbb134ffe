// Package btree implements a page-backed B+-tree used for secondary indexes:
// order-preserving byte keys (tuple.EncodeKey output) mapping to record IDs.
// Nodes live in buffer-pool pages, so index traversals and builds are charged
// real simulated I/O like every other access path.
//
// Duplicates are supported by treating (key, RID) as the sort key within
// leaves. The tree is insert-only, matching the engine's read-only-database-
// plus-materializations workload.
package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"

	"specdb/internal/storage"
)

// BTree is a B+-tree rooted at a buffer-pool page. A per-tree RWMutex makes
// it safe to share across sessions: builds (Insert, BulkLoad, Drop) take the
// write lock while traversals and metadata reads take the read lock, so a
// speculative index build on one session never races with another session's
// lookups or with the cost model pricing the tree.
type BTree struct {
	pool storage.PagePool

	mu   sync.RWMutex
	root storage.PageID
	// capacity is the serialized-size budget per node before it splits.
	capacity int
	height   int
	entries  int64
	splits   int64
	pages    []storage.PageID // every page owned by the tree, for Drop/PageIDs
}

// node is the in-memory form of one page, used by the paths that change a
// page (insert, bulk load) and by the invariant audit: they parse the
// page, edit the slices and re-serialize. Scan, the read path every index
// lookup takes, never builds one — it walks the serialized entries of the
// pinned page in place (leafEntry, internalEntry), because parsing a node
// copied every key of every page on every lookup.
type node struct {
	leaf bool
	next storage.PageID // leaf chain
	keys [][]byte
	// leaf payloads
	rids []storage.RID
	// internal children: len(children) == len(keys)+1; keys[i] is the lowest
	// key reachable under children[i+1].
	children []storage.PageID
}

// New creates an empty tree whose nodes are stored through pool. pageSize
// bounds the serialized node size.
func New(pool storage.PagePool, pageSize int) (*BTree, error) {
	t := &BTree{pool: pool, capacity: pageSize, height: 1}
	rootID, buf, err := pool.New()
	if err != nil {
		return nil, err
	}
	t.root = rootID
	t.pages = append(t.pages, rootID)
	writeNode(buf, &node{leaf: true})
	pool.Unpin(rootID, true)
	return t, nil
}

// Open rehydrates a tree from recovered metadata: the root, page list,
// height, and entry count a durable backend persisted at the last commit.
// The node pages themselves are already durable, so no rebuild happens —
// traversals simply fetch them through the pool like any other access.
func Open(pool storage.PagePool, pageSize int, root storage.PageID, pages []storage.PageID, height int, entries int64) *BTree {
	t := &BTree{pool: pool, capacity: pageSize, root: root, height: height, entries: entries}
	t.pages = make([]storage.PageID, len(pages))
	copy(t.pages, pages)
	return t
}

// Root reports the root page (persisted by durable backends at commit).
func (t *BTree) Root() storage.PageID {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.root
}

// Height reports the number of levels (1 for a lone leaf).
func (t *BTree) Height() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.height
}

// Len reports the number of (key, RID) entries.
func (t *BTree) Len() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.entries
}

// Splits reports the cumulative number of node splits (root splits included),
// a build-cost signal surfaced through the engine's metrics registry.
func (t *BTree) Splits() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.splits
}

// NumPages reports the number of pages the tree owns.
func (t *BTree) NumPages() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.pages)
}

// PageIDs returns the tree's pages (used by data staging).
func (t *BTree) PageIDs() []storage.PageID {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]storage.PageID, len(t.pages))
	copy(out, t.pages)
	return out
}

// Drop frees every page of the tree.
func (t *BTree) Drop() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, id := range t.pages {
		if err := t.pool.Free(id); err != nil {
			return err
		}
	}
	t.pages = nil
	t.root = 0
	t.entries = 0
	return nil
}

// Insert adds one (key, rid) entry.
func (t *BTree) Insert(key []byte, rid storage.RID) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.root == 0 {
		return fmt.Errorf("btree: insert into dropped tree")
	}
	sep, right, err := t.insertInto(t.root, key, rid)
	if err != nil {
		return err
	}
	if right != 0 { // root split: grow a level
		newRootID, buf, err := t.pool.New()
		if err != nil {
			return err
		}
		t.pages = append(t.pages, newRootID)
		writeNode(buf, &node{
			leaf:     false,
			keys:     [][]byte{sep},
			children: []storage.PageID{t.root, right},
		})
		t.pool.Unpin(newRootID, true)
		t.root = newRootID
		t.height++
	}
	t.entries++
	return nil
}

// insertInto descends into page id. If the child splits, it returns the
// separator key and new right sibling for the caller to absorb.
func (t *BTree) insertInto(id storage.PageID, key []byte, rid storage.RID) (sep []byte, right storage.PageID, err error) {
	buf, err := t.pool.Get(id)
	if err != nil {
		return nil, 0, err
	}
	n := readNode(buf)
	if n.leaf {
		pos := leafPos(n, key, rid)
		n.keys = insertAt(n.keys, pos, append([]byte(nil), key...))
		n.rids = insertRID(n.rids, pos, rid)
		return t.finish(id, buf, n)
	}
	ci := childIndex(n, key)
	child := n.children[ci]
	t.pool.Unpin(id, false) // release before descending; single-threaded sim
	csep, cright, err := t.insertInto(child, key, rid)
	if err != nil {
		return nil, 0, err
	}
	if cright == 0 {
		return nil, 0, nil
	}
	buf, err = t.pool.Get(id)
	if err != nil {
		return nil, 0, err
	}
	n = readNode(buf)
	ci = childIndex(n, csep)
	n.keys = insertAt(n.keys, ci, csep)
	n.children = insertPID(n.children, ci+1, cright)
	return t.finish(id, buf, n)
}

// finish writes node n back to its page, splitting first if it no longer
// fits. It returns split information for the parent.
func (t *BTree) finish(id storage.PageID, buf []byte, n *node) ([]byte, storage.PageID, error) {
	if nodeSize(n) <= t.capacity {
		writeNode(buf, n)
		t.pool.Unpin(id, true)
		return nil, 0, nil
	}
	mid := len(n.keys) / 2
	rightID, rbuf, err := t.pool.New()
	if err != nil {
		t.pool.Unpin(id, false)
		return nil, 0, err
	}
	t.splits++
	t.pages = append(t.pages, rightID)

	var sep []byte
	r := &node{leaf: n.leaf}
	if n.leaf {
		sep = n.keys[mid]
		r.keys = append(r.keys, n.keys[mid:]...)
		r.rids = append(r.rids, n.rids[mid:]...)
		r.next = n.next
		n.keys = n.keys[:mid]
		n.rids = n.rids[:mid]
		n.next = rightID
	} else {
		sep = n.keys[mid]
		r.keys = append(r.keys, n.keys[mid+1:]...)
		r.children = append(r.children, n.children[mid+1:]...)
		n.keys = n.keys[:mid]
		n.children = n.children[:mid+1]
	}
	writeNode(rbuf, r)
	t.pool.Unpin(rightID, true)
	writeNode(buf, n)
	t.pool.Unpin(id, true)
	return sep, rightID, nil
}

// Range bounds for Scan. A nil Key means unbounded on that side.
type Bound struct {
	Key       []byte
	Inclusive bool
}

// Scan visits entries with lo ≤ key ≤ hi (subject to inclusivity) in key
// order. fn returning a non-nil error stops the scan and propagates it. The
// key passed to fn aliases the pinned leaf page: it is valid only during the
// call, and fn must copy it to keep it.
func (t *BTree) Scan(lo, hi Bound, fn func(key []byte, rid storage.RID) error) error {
	return t.ScanVia(nil, lo, hi, fn)
}

// ScanVia is Scan fetching the tree's pages through via (nil: the tree's own
// pool) — the form a query's index lookups use, so their page misses are
// charged to the meter of the pool view the statement carries.
func (t *BTree) ScanVia(via storage.PagePool, lo, hi Bound, fn func(key []byte, rid storage.RID) error) error {
	if via == nil {
		via = t.pool
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.root == 0 {
		return fmt.Errorf("btree: scan of dropped tree")
	}
	id := t.root
	// Descend to the leftmost leaf that can contain lo.
	for {
		buf, err := via.Get(id)
		if err != nil {
			return err
		}
		if pageIsLeaf(buf) {
			via.Unpin(id, false)
			break
		}
		next := scanChild(buf, lo.Key)
		via.Unpin(id, false)
		id = next
	}
	for id != 0 {
		buf, err := via.Get(id)
		if err != nil {
			return err
		}
		off := nodeHeaderSize
		for i, count := 0, pageCount(buf); i < count; i++ {
			var k []byte
			var page, slot int64
			k, page, slot, off = leafEntry(buf, off)
			if lo.Key != nil {
				c := bytes.Compare(k, lo.Key)
				if c < 0 || (c == 0 && !lo.Inclusive) {
					continue
				}
			}
			if hi.Key != nil {
				c := bytes.Compare(k, hi.Key)
				if c > 0 || (c == 0 && !hi.Inclusive) {
					via.Unpin(id, false)
					return nil
				}
			}
			if err := fn(k, storage.RID{Page: int32(page), Slot: int32(slot)}); err != nil {
				via.Unpin(id, false)
				return err
			}
		}
		next := pageFirst(buf)
		via.Unpin(id, false)
		id = next
	}
	return nil
}

// scanChild picks the child of the serialized internal node in buf that a
// scan starting at key descends into: the one before the first separator
// ≥ key, so keys equal to the search key descend LEFT and a range scan
// starting at a duplicated key finds its leftmost occurrence (duplicates may
// straddle a split separator). A nil key takes the leftmost child. Separators
// have no fixed width, so the walk is linear; it stops at the first
// separator that is not below key.
func scanChild(buf []byte, key []byte) storage.PageID {
	child := pageFirst(buf)
	if key == nil {
		return child
	}
	off := nodeHeaderSize
	for i, count := 0, pageCount(buf); i < count; i++ {
		var sep []byte
		var right int64
		sep, right, off = internalEntry(buf, off)
		if bytes.Compare(sep, key) >= 0 {
			break
		}
		child = storage.PageID(right)
	}
	return child
}

// Unbounded is the open bound for Scan.
var Unbounded = Bound{}

// Exact returns the inclusive bound at key, for point lookups:
// t.Scan(Exact(k), Exact(k), fn).
func Exact(key []byte) Bound { return Bound{Key: key, Inclusive: true} }

// leafPos finds the insertion position for (key, rid) in leaf n, keeping
// entries sorted by (key, RID).
func leafPos(n *node, key []byte, rid storage.RID) int {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		c := bytes.Compare(n.keys[mid], key)
		if c == 0 {
			c = compareRID(n.rids[mid], rid)
		}
		if c < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// childIndex picks the child of internal node n to descend into for key.
func childIndex(n *node, key []byte) int {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(n.keys[mid], key) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// scanChildIndex is childIndex with strict comparison: keys equal to the
// search key descend LEFT, so a range scan starting at a duplicated key finds
// the leftmost occurrence (duplicates may straddle a split separator).
func scanChildIndex(n *node, key []byte) int {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(n.keys[mid], key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func compareRID(a, b storage.RID) int {
	if a.Page != b.Page {
		if a.Page < b.Page {
			return -1
		}
		return 1
	}
	switch {
	case a.Slot < b.Slot:
		return -1
	case a.Slot > b.Slot:
		return 1
	default:
		return 0
	}
}

func insertAt(xs [][]byte, i int, v []byte) [][]byte {
	xs = append(xs, nil)
	copy(xs[i+1:], xs[i:])
	xs[i] = v
	return xs
}

func insertRID(xs []storage.RID, i int, v storage.RID) []storage.RID {
	xs = append(xs, storage.RID{})
	copy(xs[i+1:], xs[i:])
	xs[i] = v
	return xs
}

func insertPID(xs []storage.PageID, i int, v storage.PageID) []storage.PageID {
	xs = append(xs, 0)
	copy(xs[i+1:], xs[i:])
	xs[i] = v
	return xs
}

// Node (de)serialization. Layout:
//
//	[0]    1 if leaf
//	[1:3]  uint16 entry count
//	[3:11] leaf: next-leaf PageID; internal: children[0]
//	then per entry i:
//	  uvarint key length, key bytes,
//	  leaf: varint page, varint slot
//	  internal: children[i+1] as varint
const nodeHeaderSize = 11

func pageIsLeaf(buf []byte) bool { return buf[0] == 1 }

func pageCount(buf []byte) int { return int(binary.LittleEndian.Uint16(buf[1:3])) }

// pageFirst is the next-leaf pointer of a leaf, children[0] of an internal
// node.
func pageFirst(buf []byte) storage.PageID {
	return storage.PageID(binary.LittleEndian.Uint64(buf[3:11]))
}

// entryKey reads the key of the entry at off. The key aliases buf.
func entryKey(buf []byte, off int) (key []byte, next int) {
	kl, m := binary.Uvarint(buf[off:])
	off += m
	return buf[off : off+int(kl)], off + int(kl)
}

// leafEntry reads the leaf entry at off and returns the offset of the next.
func leafEntry(buf []byte, off int) (key []byte, page, slot int64, next int) {
	key, off = entryKey(buf, off)
	page, m := binary.Varint(buf[off:])
	off += m
	slot, m = binary.Varint(buf[off:])
	return key, page, slot, off + m
}

// internalEntry reads the separator and right child at off and returns the
// offset of the next entry.
func internalEntry(buf []byte, off int) (key []byte, child int64, next int) {
	key, off = entryKey(buf, off)
	child, m := binary.Varint(buf[off:])
	return key, child, off + m
}

func writeNode(buf []byte, n *node) {
	off := nodeHeaderSize
	for i, k := range n.keys {
		if n.leaf {
			off = putLeafEntry(buf, off, k, n.rids[i])
		} else {
			off = putKey(buf, off, k)
			off += binary.PutVarint(buf[off:], int64(n.children[i+1]))
		}
	}
	first := n.next
	if !n.leaf {
		first = n.children[0]
	}
	putHeader(buf, n.leaf, len(n.keys), first)
}

// putHeader writes a node's header: its kind, its entry count, and its next
// leaf (a leaf) or first child (an internal node).
func putHeader(buf []byte, leaf bool, count int, first storage.PageID) {
	buf[0] = 0
	if leaf {
		buf[0] = 1
	}
	binary.LittleEndian.PutUint16(buf[1:3], uint16(count))
	binary.LittleEndian.PutUint64(buf[3:11], uint64(first))
}

// putLeafEntry writes a leaf entry at off and returns the offset after it.
// Writing past the page panics: insert, split and bulk load check capacity
// first, so that means the serializer and the capacity check disagree.
func putLeafEntry(buf []byte, off int, key []byte, rid storage.RID) int {
	off = putKey(buf, off, key)
	off += binary.PutVarint(buf[off:], int64(rid.Page))
	return off + binary.PutVarint(buf[off:], int64(rid.Slot))
}

// putKey writes key behind its length at off and returns the offset after it.
func putKey(buf []byte, off int, key []byte) int {
	off += binary.PutUvarint(buf[off:], uint64(len(key)))
	if copy(buf[off:], key) < len(key) {
		// invariant: see putLeafEntry.
		panic("btree: node overflowed its page")
	}
	return off + len(key)
}

func readNode(buf []byte) *node {
	n := &node{leaf: pageIsLeaf(buf)}
	count := pageCount(buf)
	if n.leaf {
		n.next = pageFirst(buf)
	} else {
		n.children = append(n.children, pageFirst(buf))
	}
	off := nodeHeaderSize
	for i := 0; i < count; i++ {
		var key []byte
		if n.leaf {
			var p, s int64
			key, p, s, off = leafEntry(buf, off)
			n.rids = append(n.rids, storage.RID{Page: int32(p), Slot: int32(s)})
		} else {
			var c int64
			key, c, off = internalEntry(buf, off)
			n.children = append(n.children, storage.PageID(c))
		}
		// The node outlives the pin and is edited in place: own the key.
		n.keys = append(n.keys, append([]byte(nil), key...))
	}
	return n
}

// nodeSize is a conservative serialized-size estimate used for split checks:
// the header plus entrySize of every key.
func nodeSize(n *node) int {
	size := nodeHeaderSize
	for _, k := range n.keys {
		size += entrySize(n.leaf, k)
	}
	return size
}

// entrySize is what one key adds to nodeSize: the key behind its length, and
// the RID it carries in a leaf or the child pointer it carries in an internal
// node.
func entrySize(leaf bool, key []byte) int {
	if leaf {
		return binary.MaxVarintLen16 + len(key) + 2*binary.MaxVarintLen32
	}
	return binary.MaxVarintLen16 + len(key) + binary.MaxVarintLen64
}
