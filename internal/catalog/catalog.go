// Package catalog is the engine's metadata layer: tables with their heap
// files, secondary indexes, column statistics, and materialized views tagged
// with the query graph they materialize. The speculation subsystem's whole
// output — materializations, indexes, histograms — lands here.
package catalog

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"specdb/internal/btree"
	"specdb/internal/qgraph"
	"specdb/internal/stats"
	"specdb/internal/storage"
	"specdb/internal/tuple"
)

// Index is a secondary index over one column of one table.
type Index struct {
	Name   string
	Table  string
	Column string
	Tree   *btree.BTree
}

// Table is a base or materialized relation. Name/Schema/Heap are fixed at
// creation; the statistics and index maps are mutated by speculative
// manipulations — possibly issued by a different session than the one
// planning a query over the table — so they live behind a per-table RWMutex.
type Table struct {
	Name   string
	Schema *tuple.Schema
	Heap   *storage.HeapFile

	// cat is the catalog the table was registered in, whose version every
	// change below advances.
	cat *Catalog

	mu sync.RWMutex
	// stats maps column name → statistics. Populated by Analyze; histogram
	// pointers are added by histogram-creation manipulations.
	stats map[string]*stats.ColumnStats
	// indexes maps column name → index.
	indexes map[string]*Index

	// qualified is Schema under the names a query gives the table's columns,
	// built by the first Qualified call.
	qualifiedOnce sync.Once
	qualified     *tuple.Schema
}

// Qualified is the table's schema with every column named "table.col": the
// schema a plan's scan of the table under its own name produces, and the
// names SELECT * expands to. It is built once and shared, so it is
// read-only.
func (t *Table) Qualified() *tuple.Schema {
	t.qualifiedOnce.Do(func() {
		t.qualified = t.Schema.Rename(func(n string) string { return t.Name + "." + n })
	})
	return t.qualified
}

// RowCount reports the table cardinality.
func (t *Table) RowCount() int64 { return t.Heap.NumRows() }

// NumPages reports the heap size in pages.
func (t *Table) NumPages() int { return t.Heap.NumPages() }

// ColumnStats returns statistics for col, or nil if not analyzed.
func (t *Table) ColumnStats(col string) *stats.ColumnStats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.stats[col]
}

// SetColumnStats installs (replacing any previous) statistics for col.
func (t *Table) SetColumnStats(col string, cs *stats.ColumnStats) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stats[col] = cs
	t.cat.Changed()
}

// SetHistogram attaches h to col's statistics, or with nil detaches the
// histogram there. A column without statistics is left as it is. This is the
// one way a histogram the catalog holds changes, so that the change advances
// the catalog's version.
func (t *Table) SetHistogram(col string, h *stats.Histogram) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if cs := t.stats[col]; cs != nil {
		cs.SetHist(h)
		t.cat.Changed()
	}
}

// Index returns the index on col, or nil.
func (t *Table) Index(col string) *Index {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.indexes[col]
}

// SetIndex registers idx as the index on col, replacing any previous entry.
func (t *Table) SetIndex(col string, idx *Index) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.indexes[col] = idx
	t.cat.Changed()
}

// RemoveIndex unregisters the index on col without dropping its tree (the
// caller owns tree disposal).
func (t *Table) RemoveIndex(col string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.indexes, col)
	t.cat.Changed()
}

// IndexList returns the table's indexes sorted by column name.
func (t *Table) IndexList() []*Index {
	t.mu.RLock()
	defer t.mu.RUnlock()
	cols := make([]string, 0, len(t.indexes))
	for c := range t.indexes {
		cols = append(cols, c)
	}
	sort.Strings(cols)
	out := make([]*Index, len(cols))
	for i, c := range cols {
		out[i] = t.indexes[c]
	}
	return out
}

// MatView records that table Name holds the materialized result of Graph.
// View columns are named "rel.col" for every column of every relation in the
// graph (the engine materializes SELECT * over the sub-query).
type MatView struct {
	Name  string
	Graph *qgraph.Graph
	// Table is the backing table, resolved when the view was registered: a
	// planner holding the view needs no second catalog lookup, which a
	// concurrent DropTable could fail.
	Table *Table
	// Forced marks query-rewriting semantics (Section 3.2): the optimizer
	// MUST use the view for any query containing Graph, rather than merely
	// considering it.
	Forced bool
}

// Catalog holds all metadata. An internal RWMutex guards the table and view
// maps so concurrent sessions can create, drop, and resolve relations safely;
// per-table state is additionally guarded by each Table's own lock.
type Catalog struct {
	pool storage.PagePool

	// version counts the changes an optimizer can read: tables, views,
	// indexes, statistics and histograms, and (through Changed) rows. Every
	// change advances it after the change is visible, so a reader that sees
	// the same version before and after planning planned against that
	// version's state (DESIGN.md §6 item 2). It is read without a lock.
	version atomic.Uint64

	mu     sync.RWMutex
	tables map[string]*Table
	views  map[string]*MatView // by view (backing table) name
}

// New returns an empty catalog creating storage through pool.
func New(pool storage.PagePool) *Catalog {
	return &Catalog{
		pool:   pool,
		tables: make(map[string]*Table),
		views:  make(map[string]*MatView),
	}
}

// Version reports how many changes the optimizer can read the catalog has
// seen. Two equal readings mean that nothing a plan depends on changed in
// between.
func (c *Catalog) Version() uint64 { return c.version.Load() }

// Changed advances the version. The catalog's own mutators call it once their
// change is visible; the engine calls it once rows written to a table's heap
// are in, since row and page counts feed the coster.
func (c *Catalog) Changed() { c.version.Add(1) }

// CreateTable registers a new empty table.
func (c *Catalog) CreateTable(name string, schema *tuple.Schema) (*Table, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.tables[name]; exists {
		return nil, fmt.Errorf("catalog: table %q already exists", name)
	}
	t := &Table{
		Name:    name,
		Schema:  schema,
		Heap:    storage.NewHeapFile(c.pool),
		cat:     c,
		stats:   make(map[string]*stats.ColumnStats),
		indexes: make(map[string]*Index),
	}
	c.tables[name] = t
	c.Changed()
	return t, nil
}

// RestoreTable registers a table around an already-populated heap file —
// the recovery path, where a durable backend rehydrated the heap from its
// persisted page list instead of creating an empty one.
func (c *Catalog) RestoreTable(name string, schema *tuple.Schema, heap *storage.HeapFile) (*Table, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.tables[name]; exists {
		return nil, fmt.Errorf("catalog: table %q already exists", name)
	}
	t := &Table{
		Name:    name,
		Schema:  schema,
		Heap:    heap,
		cat:     c,
		stats:   make(map[string]*stats.ColumnStats),
		indexes: make(map[string]*Index),
	}
	c.tables[name] = t
	c.Changed()
	return t, nil
}

// Table resolves a table by name.
func (c *Catalog) Table(name string) (*Table, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[name]
	if !ok {
		return nil, fmt.Errorf("catalog: no table %q", name)
	}
	return t, nil
}

// HasTable reports whether name exists.
func (c *Catalog) HasTable(name string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, ok := c.tables[name]
	return ok
}

// TableNames returns all table names sorted.
func (c *Catalog) TableNames() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.tables))
	for n := range c.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// DropTable removes a table, freeing its heap pages and index pages, and
// unregistering any materialized view backed by it.
func (c *Catalog) DropTable(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.tables[name]
	if !ok {
		return fmt.Errorf("catalog: drop of unknown table %q", name)
	}
	for _, idx := range t.IndexList() {
		if err := idx.Tree.Drop(); err != nil {
			return err
		}
	}
	if err := t.Heap.Drop(); err != nil {
		return err
	}
	delete(c.tables, name)
	delete(c.views, name)
	c.Changed()
	return nil
}

// AddIndex registers a built index on table.column. One index per column.
func (c *Catalog) AddIndex(table, column string, tree *btree.BTree) (*Index, error) {
	t, err := c.Table(table)
	if err != nil {
		return nil, err
	}
	if t.Schema.Ordinal(column) < 0 {
		return nil, fmt.Errorf("catalog: table %q has no column %q", table, column)
	}
	idx := &Index{
		Name:   fmt.Sprintf("idx_%s_%s", table, column),
		Table:  table,
		Column: column,
		Tree:   tree,
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, exists := t.indexes[column]; exists {
		return nil, fmt.Errorf("catalog: index on %s.%s already exists", table, column)
	}
	t.indexes[column] = idx
	c.Changed()
	return idx, nil
}

// RegisterView records that table name materializes graph.
func (c *Catalog) RegisterView(name string, graph *qgraph.Graph, forced bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.tables[name]
	if !ok {
		return fmt.Errorf("catalog: view %q has no backing table", name)
	}
	c.views[name] = &MatView{Name: name, Graph: graph, Table: t, Forced: forced}
	c.Changed()
	return nil
}

// DropView unregisters a view without touching the backing table (callers
// usually DropTable right after, which also unregisters).
func (c *Catalog) DropView(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.views, name)
	c.Changed()
}

// View returns the view backed by table name, or nil.
func (c *Catalog) View(name string) *MatView {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.views[name]
}

// Views returns all registered views sorted by name.
func (c *Catalog) Views() []*MatView {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.views))
	for n := range c.views {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*MatView, len(names))
	for i, n := range names {
		out[i] = c.views[n]
	}
	return out
}

// MatchingViews returns the views whose graph is contained in query — the
// candidates for rewriting (paper Section 3.2: "the optimizer is able to use
// it in any final query whose graph contains the materialized query as a
// sub-graph"). Sorted by view name for determinism; a query no view matches
// allocates nothing.
func (c *Catalog) MatchingViews(query *qgraph.Graph) []*MatView {
	c.mu.RLock()
	var out []*MatView
	for _, v := range c.views {
		if query.Contains(v.Graph) {
			out = append(out, v)
		}
	}
	c.mu.RUnlock()
	slices.SortFunc(out, func(a, b *MatView) int { return cmp.Compare(a.Name, b.Name) })
	return out
}

// ViewByGraph returns a view materializing exactly graph (Graph.Equal), or
// nil; of several, the first by name.
func (c *Catalog) ViewByGraph(graph *qgraph.Graph) *MatView {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var found *MatView
	for _, v := range c.views {
		if v.Graph.Equal(graph) && (found == nil || v.Name < found.Name) {
			found = v
		}
	}
	return found
}
