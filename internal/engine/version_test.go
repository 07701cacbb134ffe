package engine

import (
	"path/filepath"
	"testing"

	"specdb/internal/catalog"
	"specdb/internal/stats"
)

// TestCatalogVersionCoversPlanInputs holds catalog.Catalog.Version to its
// contract with the cost model's plan memo (DESIGN.md §5): every change a plan
// can read advances it — each entry point the speculator builds or drops
// derived objects through, a durable reopen, and the catalog calls that hide
// a speculative result until it completes and publish it then — and nothing
// that only reads, plans or moves pages in the pool does, or the memo would
// never hit. Every advance, in the catalog and at the statement boundary, is
// the only one in at least one case, so a change that stops advancing the
// version fails a case by its name.
func TestCatalogVersionCoversPlanInputs(t *testing.T) {
	view := func(e *Engine) error {
		_, err := e.Materialize("v", selectionOn("t"), false)
		return err
	}
	index := func(e *Engine) error { return resultless(e.CreateIndex("t", "a", nil)) }
	histogram := func(e *Engine) error { return resultless(e.CreateHistogram("t", "b", nil)) }
	table := func(e *Engine) *catalog.Table {
		tb, err := e.Catalog.Table("t")
		if err != nil {
			t.Fatal(err)
		}
		return tb
	}
	var hidden *catalog.Index // the index SetIndex's case publishes
	query := func(e *Engine) error {
		q, err := boundQuery(e, "t")
		if err != nil {
			return err
		}
		return resultless(e.RunQuery(q))
	}
	cases := []struct {
		name     string
		prep     func(e *Engine) error
		act      func(e *Engine) error
		advances bool
	}{
		{name: "CreateIndex", act: index, advances: true},
		{name: "DropIndex", prep: index, act: func(e *Engine) error { return e.DropIndex("t", "a") }, advances: true},
		{name: "CreateHistogram", act: histogram, advances: true},
		{name: "DropHistogram", prep: histogram, act: func(e *Engine) error { return e.DropHistogram("t", "b") }, advances: true},
		{name: "Materialize", act: view, advances: true},
		{name: "DropTable", prep: view, act: func(e *Engine) error { return e.DropTable("v") }, advances: true},
		{name: "InsertRows", act: func(e *Engine) error {
			return e.InsertRows("t", intRows(3, func(i int) (int64, int64) { return int64(i), int64(i) }))
		}, advances: true},
		{name: "Analyze", act: func(e *Engine) error { return e.Analyze("t", nil) }, advances: true},
		// What a materialization does to the catalog beside its statement:
		// its table made, and dropped again when the build fails.
		{name: "Catalog.CreateTable", act: func(e *Engine) error {
			_, err := e.Catalog.CreateTable("spec_build", intSchema("a", "b"))
			return err
		}, advances: true},
		{name: "Catalog.DropTable", prep: func(e *Engine) error {
			_, err := e.Catalog.CreateTable("spec_build", intSchema("a", "b"))
			return err
		}, act: func(e *Engine) error { return e.Catalog.DropTable("spec_build") }, advances: true},
		// The speculator's hide-and-publish calls.
		{name: "DropView", prep: view, act: func(e *Engine) error { e.Catalog.DropView("v"); return nil }, advances: true},
		{name: "RegisterView", prep: func(e *Engine) error {
			if err := view(e); err != nil {
				return err
			}
			e.Catalog.DropView("v")
			return nil
		}, act: func(e *Engine) error { return e.Catalog.RegisterView("v", selectionOn("t"), false) }, advances: true},
		{name: "RemoveIndex", prep: index, act: func(e *Engine) error { table(e).RemoveIndex("a"); return nil }, advances: true},
		{name: "SetIndex", prep: func(e *Engine) error {
			if err := index(e); err != nil {
				return err
			}
			hidden = table(e).Index("a")
			table(e).RemoveIndex("a")
			return nil
		}, act: func(e *Engine) error { table(e).SetIndex("a", hidden); return nil }, advances: true},
		{name: "SetHistogram", act: func(e *Engine) error {
			table(e).SetHistogram("b", &stats.Histogram{})
			return nil
		}, advances: true},
		// Reading, planning and staging change nothing a plan reads.
		{name: "RunQuery", act: query},
		{name: "PlanGraph", act: func(e *Engine) error {
			_, err := e.PlanGraph(selectionOn("t"))
			return err
		}},
		{name: "ExplainAnalyze", act: func(e *Engine) error {
			q, err := boundQuery(e, "t")
			if err != nil {
				return err
			}
			return resultless(e.ExplainAnalyze(q))
		}},
		{name: "Stage", act: func(e *Engine) error { return resultless(e.Stage("t")) }},
		{name: "Unstage", prep: func(e *Engine) error { return resultless(e.Stage("t")) }, act: func(e *Engine) error { return e.Unstage("t") }},
		{name: "ColdStart", act: func(e *Engine) error { return e.ColdStart() }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := New(Config{BufferPoolPages: 64})
			if err := loadTable(e, "t"); err != nil {
				t.Fatal(err)
			}
			if c.prep != nil {
				if err := c.prep(e); err != nil {
					t.Fatal(err)
				}
			}
			before := e.Catalog.Version()
			if err := c.act(e); err != nil {
				t.Fatal(err)
			}
			if moved := e.Catalog.Version() != before; moved != c.advances {
				t.Errorf("version %d → %d: advanced %v, want %v", before, e.Catalog.Version(), moved, c.advances)
			}
		})
	}

	// A reopened engine's catalog is a new one, rebuilt from the page file: its
	// version must not read as a catalog nothing was ever registered in.
	t.Run("DurableReopen", func(t *testing.T) {
		cfg := Config{BufferPoolPages: 64, Storage: StorageConfig{Path: filepath.Join(t.TempDir(), "db")}}
		e, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.CreateTable("t", intSchema("a", "b")); err != nil {
			t.Fatal(err)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		if e, err = Open(cfg); err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		if !e.Catalog.HasTable("t") {
			t.Fatal("the reopened engine lost its table")
		}
		if v := e.Catalog.Version(); v == catalog.New(nil).Version() {
			t.Errorf("the reopened catalog reads version %d, as an empty one does", v)
		}
	})
}
