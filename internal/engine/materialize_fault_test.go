package engine

import (
	"fmt"
	"testing"

	"specdb/internal/plan"
	"specdb/internal/qgraph"
	"specdb/internal/storage"
)

// failingDisk fails the k-th page read or write after arm, once: with an
// error the pool never retries (it is no fault.Error), or with a panic. The
// engine's own injector draws faults by rate per page; a sweep needs to say
// which operation.
type failingDisk struct {
	storage.Disk
	countdown int // operations until the failure; 0 = disarmed
	panics    bool
	fired     bool
}

func (d *failingDisk) arm(k int, panics bool) { d.countdown, d.panics, d.fired = k, panics, false }

func (d *failingDisk) fail(op string, id storage.PageID) error {
	if d.countdown == 0 {
		return nil
	}
	if d.countdown--; d.countdown > 0 {
		return nil
	}
	d.fired = true
	if d.panics {
		panic(fmt.Sprintf("failingDisk: %s of page %d", op, id))
	}
	return fmt.Errorf("failingDisk: %s of page %d", op, id)
}

func (d *failingDisk) Read(id storage.PageID, buf []byte) error {
	if err := d.fail("read", id); err != nil {
		return err
	}
	return d.Disk.Read(id, buf)
}

func (d *failingDisk) Write(id storage.PageID, buf []byte) error {
	if err := d.fail("write", id); err != nil {
		return err
	}
	return d.Disk.Write(id, buf)
}

// TestFailedMaterializeLeavesNothingBehind sweeps a failure over every disk
// operation of one Materialize — the k-th read or write fails, k = 1, 2, …
// until the build gets through — once as a returned error and once as a panic
// the statement boundary recovers. Whatever stage the failure hits, the name is
// free again, no view is registered under it and the tables hold the pages
// they held before: a speculative build that dies must not cost the catalog a
// table under a name FreshName will never reuse.
func TestFailedMaterializeLeavesNothingBehind(t *testing.T) {
	const rows = 10000
	for _, panics := range []bool{false, true} {
		t.Run(fmt.Sprintf("panics=%v", panics), func(t *testing.T) {
			disk := &failingDisk{Disk: storage.NewDiskManager(0)}
			// A pool far smaller than the data: the build reads its inputs
			// from disk and evicts — writes back — its own dirty pages.
			e := build(Config{BufferPoolPages: 8}, disk)
			for _, tb := range []string{"r", "s"} {
				if err := loadRows(e, tb, rows); err != nil {
					t.Fatal(err)
				}
			}
			g := qgraph.New()
			g.AddJoin(qgraph.NewJoin("r", "b", "s", "b"))
			if err := e.ColdStart(); err != nil {
				t.Fatal(err)
			}
			pagesBefore := e.TotalDataPages()

			failures := 0
			for k := 1; ; k++ {
				name := fmt.Sprintf("v%d", k)
				disk.arm(k, panics)
				res, err := e.Materialize(name, g, false)
				disk.arm(0, false)
				if err == nil {
					if disk.fired {
						t.Fatalf("k=%d: the failure fired and Materialize reported success", k)
					}
					if res.RowCount != rows || e.Catalog.View(name) == nil {
						t.Fatalf("k=%d: fault-free build: %d rows, view %v", k, res.RowCount, e.Catalog.View(name))
					}
					break
				}
				failures++
				if e.Catalog.HasTable(name) {
					t.Fatalf("k=%d (%v): table %q left behind", k, err, name)
				}
				if e.Catalog.View(name) != nil {
					t.Fatalf("k=%d (%v): view %q left registered", k, err, name)
				}
				if got := e.TotalDataPages(); got != pagesBefore {
					t.Fatalf("k=%d (%v): %d data pages, %d before the call", k, err, got, pagesBefore)
				}
				if k > 10000 {
					t.Fatal("Materialize never got through")
				}
			}
			t.Logf("%d operations failed in turn before the build got through", failures)
			if failures < 20 {
				t.Fatalf("only %d operations of the build were failed; the pool is not small enough to sweep anything", failures)
			}
			if got := e.PanicLog().Total(); panics && int(got) != failures {
				t.Fatalf("%d panics recorded, %d injected", got, failures)
			}
			q, err := plan.BindGraph(e.Catalog, g)
			if err == nil {
				_, err = e.RunQuery(q)
			}
			if err != nil {
				t.Fatalf("query after the sweep: %v", err)
			}
		})
	}
}
