package storage

// HeapIterator is a pull-based cursor over a heap file, pinning one page at a
// time. It exists for the Volcano executor, whose operators demand rows one
// by one rather than via Scan's callback. The page list is snapshotted at
// creation, so the cursor never races with concurrent appends to the file.
type HeapIterator struct {
	pool    PagePool
	pages   []PageID
	pageIdx int
	slotIdx int
	cur     SlottedPage
	pinned  PageID // 0 when nothing pinned
}

// NewIterator returns a cursor positioned before the first record that
// fetches its pages through via (nil: the file's own pool).
func (h *HeapFile) NewIterator(via PagePool) *HeapIterator {
	if via == nil {
		via = h.pool
	}
	return &HeapIterator{pool: via, pages: h.PageIDs()}
}

// Next advances to the next record, returning its RID and payload. The
// payload aliases the pinned page buffer and is valid only until the next
// Next or Close call. ok is false at end of file.
func (it *HeapIterator) Next() (rid RID, rec []byte, ok bool, err error) {
	for {
		if it.pinned == 0 {
			if it.pageIdx >= len(it.pages) {
				return RID{}, nil, false, nil
			}
			id := it.pages[it.pageIdx]
			buf, err := it.pool.Get(id)
			if err != nil {
				return RID{}, nil, false, err
			}
			it.pinned = id
			it.cur = AsSlotted(buf)
			it.slotIdx = 0
		}
		if it.slotIdx < it.cur.NumSlots() {
			rec, err := it.cur.Record(it.slotIdx)
			if err != nil {
				it.release()
				return RID{}, nil, false, err
			}
			rid := RID{Page: int32(it.pageIdx), Slot: int32(it.slotIdx)}
			it.slotIdx++
			return rid, rec, true, nil
		}
		it.release()
		it.pageIdx++
	}
}

// Close releases any pinned page. Safe to call multiple times.
func (it *HeapIterator) Close() { it.release() }

func (it *HeapIterator) release() {
	if it.pinned != 0 {
		it.pool.Unpin(it.pinned, false)
		it.pinned = 0
	}
}
