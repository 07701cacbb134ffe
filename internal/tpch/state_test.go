package tpch

import (
	"bytes"
	"cmp"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"strings"
	"testing"

	"specdb/internal/btree"
	"specdb/internal/catalog"
	"specdb/internal/engine"
	"specdb/internal/golden"
	"specdb/internal/stats"
	"specdb/internal/storage"
	"specdb/internal/tuple"
)

// setupPoolPages is the experiments' 46-page pool (harness.PoolPages32MB),
// smaller than lineitem and than its larger indexes, so a set-up evicts as
// it loads and builds.
const setupPoolPages = 46

// TestSetupStateKeepsItsBytes pins the whole state a set-up leaves behind at
// 100MB on the experiments' pool: the disk's page count and an FNV digest of
// every page image in page-id order (a freed id counted as a gap), and every
// column's statistics — bounds as kind and bits — and histogram. The file was
// recorded before the load fed the preparation, so a faster set-up has to
// leave each page, each statistic and each bucket where the scan-per-build
// set-up left it: no GO can tell the two apart.
func TestSetupStateKeepsItsBytes(t *testing.T) {
	e := engine.New(engine.Config{BufferPoolPages: setupPoolPages})
	if err := Load(e, Scale100MB, 42); err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	pages, gaps := fnv.New64a(), 0
	buf := make([]byte, e.Disk.PageSize())
	id := storage.PageID(1)
	for seen := 0; seen < e.Disk.Allocated(); id++ {
		fmt.Fprintf(pages, "%d:", id)
		if err := e.Disk.Read(id, buf); err != nil {
			gaps++
			continue
		}
		pages.Write(buf)
		seen++
	}
	fmt.Fprintf(&got, "pages=%d gaps=%d images=%016x\n", e.Disk.Allocated(), gaps, pages.Sum64())
	for _, name := range e.Catalog.TableNames() {
		tb, err := e.Catalog.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, col := range tb.Schema.Columns {
			fmt.Fprintf(&got, "%s.%s %s\n", name, col.Name, statsLine(tb.ColumnStats(col.Name)))
		}
	}
	if !golden.Check(t, "testdata/setup_state.golden", got.String()) {
		t.Fatal("the state after set-up changed: re-record with -update only if a change to what set-up builds is intended")
	}
}

// statsLine renders a column's statistics exactly: counts, each bound as its
// kind and payload bits, and the histogram's buckets as a digest of their
// bits and counts.
func statsLine(cs *stats.ColumnStats) string {
	if cs == nil {
		return "none"
	}
	s := summaryLine(cs)
	if h := cs.Hist(); h != nil {
		d := fnv.New64a()
		for _, b := range h.Buckets {
			fmt.Fprintf(d, "%016x %016x %d %d;", math.Float64bits(b.Lo), math.Float64bits(b.Hi), b.Count, b.Distinct)
		}
		s += fmt.Sprintf(" hist=%d/%d/%016x", h.Total, len(h.Buckets), d.Sum64())
	}
	return s
}

// summaryLine renders a column's counts and bounds exactly.
func summaryLine(cs *stats.ColumnStats) string {
	s := fmt.Sprintf("count=%d distinct=%d", cs.Count, cs.Distinct)
	if cs.HasRange {
		s += fmt.Sprintf(" min=%s max=%s", valueBits(cs.Min), valueBits(cs.Max))
	}
	return s
}

// valueBits renders v as its kind and payload, a float by its IEEE bits so a
// signed zero or a NaN payload would show.
func valueBits(v tuple.Value) string {
	switch v.Kind() {
	case tuple.KindFloat:
		return fmt.Sprintf("float:%016x", math.Float64bits(v.Float()))
	case tuple.KindString:
		return fmt.Sprintf("string:%q", v.Str())
	default:
		return fmt.Sprintf("%s:%d", v.Kind(), v.Int())
	}
}

// TestSetupMatchesScanReferences checks what a set-up builds against
// references that share nothing with the load's feed above the heap, at
// 100MB on the experiments' pool: each index's leaf walk against a heap
// scan's (EncodeKey, RID) list sorted by comparison, each histogram against
// stats.BuildHistogram over catalog.ColumnValues, and each column's
// statistics against a zero-kind stats.Collector fed by a scan, the bounds
// compared as kind and bits.
func TestSetupMatchesScanReferences(t *testing.T) {
	e := engine.New(engine.Config{BufferPoolPages: setupPoolPages})
	if err := Load(e, Scale100MB, 42); err != nil {
		t.Fatal(err)
	}
	indexes, hists := 0, 0
	for _, name := range e.Catalog.TableNames() {
		tb, err := e.Catalog.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		var rids []storage.RID
		var rows []tuple.Row
		err = tb.Heap.Scan(func(rid storage.RID, rec []byte) error {
			row, _, err := tuple.DecodeRow(rec, tb.Schema)
			rids, rows = append(rids, rid), append(rows, row)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		for ord, col := range tb.Schema.Columns {
			var c stats.Collector
			for _, row := range rows {
				c.Add(row[ord])
			}
			want := c.Stats()
			c.Release()
			cs := tb.ColumnStats(col.Name)
			if cs == nil {
				t.Fatalf("%s.%s has no statistics", name, col.Name)
			}
			if got, want := summaryLine(cs), summaryLine(want); got != want {
				t.Errorf("%s.%s statistics: got %s, want %s", name, col.Name, got, want)
			}
			if idx := tb.Index(col.Name); idx != nil {
				indexes++
				if got, want := leafWalk(t, idx.Tree), scanEntries(rows, rids, ord); got != want {
					t.Errorf("%s.%s index: the leaf walk and the sorted scan differ", name, col.Name)
				}
			}
			if h := cs.Hist(); h != nil {
				hists++
				vals, err := catalog.ColumnValues(tb, col.Name)
				if err != nil {
					t.Fatal(err)
				}
				want, err := stats.BuildHistogram(vals, 20) // the engine's bucket count
				if err != nil {
					t.Fatal(err)
				}
				if bucketBits(h) != bucketBits(want) {
					t.Errorf("%s.%s histogram: got %s, want %s", name, col.Name, bucketBits(h), bucketBits(want))
				}
			}
		}
	}
	if indexes != 23 || hists != 13 {
		t.Fatalf("checked %d indexes and %d histograms, want 23 and 13", indexes, hists)
	}
}

// leafWalk renders every (key, RID) of the tree in leaf order.
func leafWalk(t *testing.T, tree *btree.BTree) string {
	t.Helper()
	var b strings.Builder
	err := tree.Scan(btree.Unbounded, btree.Unbounded, func(key []byte, rid storage.RID) error {
		fmt.Fprintf(&b, "%x %v\n", key, rid)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// scanEntries renders column ord's (EncodeKey, RID) pairs of a heap scan,
// sorted by comparison: key bytes, then RID.
func scanEntries(rows []tuple.Row, rids []storage.RID, ord int) string {
	type entry struct {
		key []byte
		rid storage.RID
	}
	entries := make([]entry, len(rows))
	for i, row := range rows {
		entries[i] = entry{tuple.EncodeKey(nil, row[ord]), rids[i]}
	}
	slices.SortFunc(entries, func(a, b entry) int {
		if c := bytes.Compare(a.key, b.key); c != 0 {
			return c
		}
		return cmp.Or(cmp.Compare(a.rid.Page, b.rid.Page), cmp.Compare(a.rid.Slot, b.rid.Slot))
	})
	var b strings.Builder
	for _, e := range entries {
		fmt.Fprintf(&b, "%x %v\n", e.key, e.rid)
	}
	return b.String()
}

// bucketBits renders a histogram's buckets exactly.
func bucketBits(h *stats.Histogram) string {
	s := fmt.Sprintf("total=%d", h.Total)
	for _, b := range h.Buckets {
		s += fmt.Sprintf(" [%016x %016x %d %d]", math.Float64bits(b.Lo), math.Float64bits(b.Hi), b.Count, b.Distinct)
	}
	return s
}
