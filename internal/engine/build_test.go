package engine

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"specdb/internal/btree"
	"specdb/internal/catalog"
	"specdb/internal/sim"
	"specdb/internal/storage"
	"specdb/internal/tuple"
)

// TestCreateIndexWritesEachPageOnce builds an index on a table larger than the
// pool, into a tree larger than the pool, and counts the disk's traffic from
// a cold pool through the build and the flush after it: the scan reads each
// heap page once, every index page is written exactly once, and no index
// page is read back, which a bulk loader that chained its leaves after
// writing them would do for every leaf the pool had already evicted. The
// statement's Work says the same: its reads are the scan's.
func TestCreateIndexWritesEachPageOnce(t *testing.T) {
	e := New(Config{BufferPoolPages: 16})
	if err := loadRows(e, "R", 20000); err != nil {
		t.Fatal(err)
	}
	r := sim.NewRand(9)
	if err := e.InsertRows("R", intRows(20000, func(int) (int64, int64) { return r.Int63n(1e6), 0 })); err != nil {
		t.Fatal(err)
	}
	if err := e.ColdStart(); err != nil {
		t.Fatal(err)
	}
	tb, err := e.Catalog.Table("R")
	if err != nil {
		t.Fatal(err)
	}
	reads, writes := e.Disk.Stats()
	res, err := e.CreateIndex("R", "a", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ColdStart(); err != nil {
		t.Fatal(err)
	}
	reads2, writes2 := e.Disk.Stats()
	heap, index := int64(tb.NumPages()), int64(tb.Index("a").Tree.NumPages())
	if heap <= 16 || index <= 16 {
		t.Fatalf("the heap (%d pages) and the index (%d) must both outgrow the 16-page pool", heap, index)
	}
	if got := reads2 - reads; got != heap {
		t.Errorf("the build read %d pages, want the heap's %d: an index page was read back", got, heap)
	}
	if got := writes2 - writes; got != index {
		t.Errorf("the build and its flush wrote %d pages, want the index's %d, each once", got, index)
	}
	if res.Work.PageReads != heap || res.Work.PageWrites > index {
		t.Errorf("Work read %d and wrote %d pages, want %d reads and at most %d writes", res.Work.PageReads, res.Work.PageWrites, heap, index)
	}
}

// TestStringIndexFromOneScan indexes a string column, whose keys are not
// 8-byte images: its entries are carved from the scan and comparison-sorted.
// The leaf walk must be every (key, RID) of the heap in (key, RID) order, and
// a load's feed, which gathers no string keys, must refuse the build.
func TestStringIndexFromOneScan(t *testing.T) {
	e := New(Config{BufferPoolPages: 16})
	tb, err := e.CreateTable("S", tuple.NewSchema(
		tuple.Column{Name: "s", Kind: tuple.KindString},
		tuple.Column{Name: "n", Kind: tuple.KindInt},
	))
	if err != nil {
		t.Fatal(err)
	}
	fed := catalog.NewFeed(tb, 3000)
	defer fed.Release()
	words := []string{"", "b", "ab", "a", "abc", "zz", "b"}
	err = e.InsertGenerated("S", 3000, fed, func(i int, row tuple.Row) {
		row[0], row[1] = tuple.NewString(strings.Repeat(words[i%len(words)], 1+i%5)), tuple.NewInt(int64(i))
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.CreateIndex("S", "s", fed); err == nil {
		t.Fatal("a load's feed gathers no string keys, yet it built a string index")
	}
	if _, err := e.CreateIndex("S", "s", nil); err != nil {
		t.Fatal(err)
	}
	var want []string
	err = tb.Heap.Scan(func(rid storage.RID, rec []byte) error {
		v, _, err := tuple.DecodeColumn(rec, tb.Schema, 0)
		want = append(want, fmt.Sprintf("%q %010d %010d", v.Str(), rid.Page, rid.Slot))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(want) // a key never holds a quote, so this is (key, RID) order
	var got []string
	err = tb.Index("s").Tree.Scan(btree.Unbounded, btree.Unbounded, func(key []byte, rid storage.RID) error {
		got = append(got, fmt.Sprintf("%q %010d %010d", key, rid.Page, rid.Slot))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("the leaf walk (%d entries) is not the heap's (key, RID) list (%d)", len(got), len(want))
	}
}
