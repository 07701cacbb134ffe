package btree

import (
	"testing"

	"specdb/internal/buffer"
	"specdb/internal/sim"
	"specdb/internal/storage"
)

// TestPointLookupAllocsIndependentOfFanOut is the index leg's memory gate
// (DESIGN.md §15): Scan walks the serialized entries of each pinned page, so
// a lookup costs the same allocations — none, on a pool that holds the tree —
// whether a node holds a dozen keys or several hundred.
func TestPointLookupAllocsIndependentOfFanOut(t *testing.T) {
	const keys = 20000
	for _, pageSize := range []int{256, 8192} {
		pool := buffer.NewPool(storage.NewDiskManager(pageSize), 4096, sim.NewMeter())
		tree, err := New(pool, pageSize)
		if err != nil {
			t.Fatal(err)
		}
		entries := make([]Entry, keys)
		for i := range entries {
			entries[i] = Entry{Key: intKey(int64(i)), RID: storage.RID{Page: int32(i / 100), Slot: int32(i % 100)}}
		}
		if err := tree.BulkLoad(entries); err != nil {
			t.Fatal(err)
		}
		found, next := 0, 0
		visit := func([]byte, storage.RID) error { found++; return nil }
		allocs := testing.AllocsPerRun(2000, func() {
			k := Exact(entries[next%keys].Key)
			next += 7919
			if err := tree.Scan(k, k, visit); err != nil {
				t.Fatal(err)
			}
		})
		if found != 2001 { // AllocsPerRun warms up with one extra call
			t.Fatalf("page size %d: %d lookups found an entry, want 2001", pageSize, found)
		}
		if allocs != 0 {
			t.Fatalf("page size %d (height %d): a point lookup allocates %.2f times, want 0", pageSize, tree.Height(), allocs)
		}
	}
}
