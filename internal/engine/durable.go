// Durable mode (DESIGN.md §12): the engine on top of storage.FileDisk.
//
// The commit protocol is statement-grained redo logging. Every successful
// non-volatile mutating statement ends with FlushAll (all dirty pages become
// WAL records) followed by one commit record carrying the full engine
// metadata: catalog shapes (heaps, indexes, stats, views), the applied-
// statement sequence number, and the learned user profile. Recovery replays
// the WAL through the last commit record, rehydrates the catalog from the
// blob, and garbage-collects orphan pages — which is exactly how speculative
// `spec*` namespaces are made volatile: they are flushed like everything
// else but never referenced by a commit record, so a restart discards them
// and the speculation layer rebuilds from a clean slate.
package engine

import (
	"encoding/json"
	"fmt"
	"strings"

	"specdb/internal/btree"
	"specdb/internal/fault"
	"specdb/internal/qgraph"
	"specdb/internal/stats"
	"specdb/internal/storage"
	"specdb/internal/tuple"
)

// StorageConfig selects and tunes the durable backend. The zero value keeps
// the engine on the in-memory DiskManager, which logs nothing.
type StorageConfig struct {
	// Path is the page file location; "" means in-memory.
	Path string
	// CheckpointBytes triggers a WAL checkpoint at commit (0 = 4 MB).
	CheckpointBytes int64
	// Sync fsyncs at durability points (off by default; see storage.FileConfig).
	Sync bool
	// Crash arms deterministic crash-point injection (tests only).
	Crash *fault.Crash
}

// VolatilePrefix marks table names excluded from durability: speculative
// spec_N materializations and spec_s<id> session namespaces. Statements
// touching only such tables do not commit, and their pages are
// garbage-collected on recovery.
const VolatilePrefix = "spec"

// metaVersion guards the commit-record blob layout; bump on change.
const metaVersion = 1

type metaValue struct {
	Kind uint8   `json:"k"`
	I    int64   `json:"i,omitempty"`
	F    float64 `json:"f,omitempty"`
	S    string  `json:"s,omitempty"`
}

type metaColumn struct {
	Name string `json:"name"`
	Kind uint8  `json:"kind"`
}

type metaBucket struct {
	Lo       float64 `json:"lo"`
	Hi       float64 `json:"hi"`
	Count    int64   `json:"count"`
	Distinct int64   `json:"distinct"`
}

type metaHist struct {
	Total   int64        `json:"total"`
	Buckets []metaBucket `json:"buckets"`
}

type metaColStats struct {
	Col      string    `json:"col"`
	Count    int64     `json:"count"`
	Distinct int64     `json:"distinct"`
	HasRange bool      `json:"has_range"`
	Min      metaValue `json:"min"`
	Max      metaValue `json:"max"`
	Hist     *metaHist `json:"hist,omitempty"`
}

type metaIndex struct {
	Column  string  `json:"column"`
	Root    int64   `json:"root"`
	Pages   []int64 `json:"pages"`
	Height  int     `json:"height"`
	Entries int64   `json:"entries"`
}

type metaTable struct {
	Name    string         `json:"name"`
	Columns []metaColumn   `json:"columns"`
	Pages   []int64        `json:"pages"`
	Rows    int64          `json:"rows"`
	Stats   []metaColStats `json:"stats,omitempty"`
	Indexes []metaIndex    `json:"indexes,omitempty"`
}

type metaSelection struct {
	Rel   string    `json:"rel"`
	Col   string    `json:"col"`
	Op    uint8     `json:"op"`
	Const metaValue `json:"const"`
}

type metaJoin struct {
	LeftRel  string `json:"lrel"`
	LeftCol  string `json:"lcol"`
	RightRel string `json:"rrel"`
	RightCol string `json:"rcol"`
}

type metaView struct {
	Name   string          `json:"name"`
	Forced bool            `json:"forced"`
	Rels   []string        `json:"rels"`
	Sels   []metaSelection `json:"sels,omitempty"`
	Joins  []metaJoin      `json:"joins,omitempty"`
}

type metaRoot struct {
	Version    int         `json:"version"`
	AppliedSeq int64       `json:"applied_seq"`
	Tables     []metaTable `json:"tables"`
	Views      []metaView  `json:"views,omitempty"`
	Profile    []byte      `json:"profile,omitempty"`
}

// toMetaValue fills the one payload field v's kind names, keeping the JSON
// shape (Str is "" for a non-string).
func toMetaValue(v tuple.Value) metaValue {
	m := metaValue{Kind: uint8(v.Kind()), S: v.Str()}
	switch v.Kind() {
	case tuple.KindInt, tuple.KindDate:
		m.I = v.Int()
	case tuple.KindFloat:
		m.F = v.Float()
	}
	return m
}

func fromMetaValue(m metaValue) tuple.Value {
	switch tuple.Kind(m.Kind) {
	case tuple.KindInt:
		return tuple.NewInt(m.I)
	case tuple.KindDate:
		return tuple.NewDate(m.I)
	case tuple.KindFloat:
		return tuple.NewFloat(m.F)
	case tuple.KindString:
		return tuple.NewString(m.S)
	}
	return tuple.Value{} // KindInvalid
}

func toMetaPages(ids []storage.PageID) []int64 {
	out := make([]int64, len(ids))
	for i, id := range ids {
		out[i] = int64(id)
	}
	return out
}

func fromMetaPages(ids []int64) []storage.PageID {
	out := make([]storage.PageID, len(ids))
	for i, id := range ids {
		out[i] = storage.PageID(id)
	}
	return out
}

// Open constructs an engine like New, but when cfg.Storage.Path is set it
// runs on a durable FileDisk: existing state is recovered (catalog, base
// tables, learned profile), volatile speculation namespaces are garbage-
// collected, and every subsequent non-volatile mutating statement commits.
func Open(cfg Config) (*Engine, error) {
	if cfg.Storage.Path == "" {
		return New(cfg), nil
	}
	fd, err := storage.OpenFileDisk(storage.FileConfig{
		Path:            cfg.Storage.Path,
		CheckpointBytes: cfg.Storage.CheckpointBytes,
		Sync:            cfg.Storage.Sync,
		Gate:            cfg.Storage.Crash,
	})
	if err != nil {
		return nil, err
	}
	e := build(cfg, fd)
	e.fileDisk = fd
	e.Pool.SetDurableAccounting(true)
	e.obsCommits = e.metrics.Counter("engine.durable.commits")
	e.obsCheckpointPages = e.metrics.Counter("engine.durable.checkpoint_pages")
	if err := e.restoreDurable(); err != nil {
		_ = fd.Close()
		return nil, fmt.Errorf("engine: recovery failed: %w", err)
	}
	return e, nil
}

// restoreDurable rehydrates the catalog from the last commit record, frees
// orphan pages (speculative namespaces, aborted statements), and seals the
// recovered state with a fresh commit. It runs once from Open, before any
// concurrent access, but holds durMu throughout so the guarded durable
// fields are only ever touched under the lock.
func (e *Engine) restoreDurable() error {
	e.durMu.Lock()
	defer e.durMu.Unlock()
	blob := e.fileDisk.Meta()
	if len(blob) > 0 {
		var root metaRoot
		if err := json.Unmarshal(blob, &root); err != nil {
			return fmt.Errorf("engine: decode commit metadata: %w", err)
		}
		if root.Version != metaVersion {
			return fmt.Errorf("engine: commit metadata version %d, want %d", root.Version, metaVersion)
		}
		for _, mt := range root.Tables {
			cols := make([]tuple.Column, len(mt.Columns))
			for i, c := range mt.Columns {
				cols[i] = tuple.Column{Name: c.Name, Kind: tuple.Kind(c.Kind)}
			}
			schema := tuple.NewSchema(cols...)
			heap := storage.OpenHeapFile(e.Pool, fromMetaPages(mt.Pages), mt.Rows)
			t, err := e.Catalog.RestoreTable(mt.Name, schema, heap)
			if err != nil {
				return err
			}
			for _, ms := range mt.Stats {
				cs := &stats.ColumnStats{
					Count:    ms.Count,
					Distinct: ms.Distinct,
					HasRange: ms.HasRange,
					Min:      fromMetaValue(ms.Min),
					Max:      fromMetaValue(ms.Max),
				}
				t.SetColumnStats(ms.Col, cs)
				if ms.Hist != nil {
					h := &stats.Histogram{Total: ms.Hist.Total}
					for _, b := range ms.Hist.Buckets {
						h.Buckets = append(h.Buckets, stats.Bucket{
							Lo: b.Lo, Hi: b.Hi, Count: b.Count, Distinct: b.Distinct,
						})
					}
					t.SetHistogram(ms.Col, h)
				}
			}
			for _, mi := range mt.Indexes {
				tree := btree.Open(e.Pool, e.Disk.PageSize(), storage.PageID(mi.Root),
					fromMetaPages(mi.Pages), mi.Height, mi.Entries)
				if _, err := e.Catalog.AddIndex(mt.Name, mi.Column, tree); err != nil {
					return err
				}
			}
		}
		for _, mv := range root.Views {
			g := qgraph.New()
			for _, rel := range mv.Rels {
				g.AddRelation(rel)
			}
			for _, ms := range mv.Sels {
				g.AddSelection(qgraph.Selection{
					Rel: ms.Rel, Col: ms.Col,
					Op: tuple.CmpOp(ms.Op), Const: fromMetaValue(ms.Const),
				})
			}
			for _, mj := range mv.Joins {
				g.AddJoin(qgraph.NewJoin(mj.LeftRel, mj.LeftCol, mj.RightRel, mj.RightCol))
			}
			if err := e.Catalog.RegisterView(mv.Name, g, mv.Forced); err != nil {
				return err
			}
		}
		e.appliedSeq = root.AppliedSeq
		e.recoveredProfile = root.Profile
		e.lastProfile = root.Profile
	}

	// Orphan GC: every allocated page not referenced by a committed heap or
	// index belongs to a speculative namespace or an aborted statement. Both
	// are gone by design; reclaim the pages.
	referenced := make(map[storage.PageID]bool)
	for _, name := range e.Catalog.TableNames() {
		t, err := e.Catalog.Table(name)
		if err != nil {
			return err
		}
		for _, id := range t.Heap.PageIDs() {
			referenced[id] = true
		}
		for _, idx := range t.IndexList() {
			for _, id := range idx.Tree.PageIDs() {
				referenced[id] = true
			}
		}
	}
	for _, id := range e.fileDisk.AllocatedIDs() {
		if !referenced[id] {
			if err := e.Pool.Free(id); err != nil {
				return err
			}
			e.recoveredOrphans++
		}
	}
	// Seal: commit the post-GC state so the next crash recovers straight to
	// it (and the WAL starts the session truncated).
	return e.commitLocked(false)
}

// buildMetaLocked (caller holds durMu) serializes the full non-volatile engine
// state for the commit record of applied-statement number seq. Iteration
// orders are sorted (catalog names, schema order), so equal states produce
// byte-equal blobs.
func (e *Engine) buildMetaLocked(seq int64) ([]byte, error) {
	root := metaRoot{Version: metaVersion, AppliedSeq: seq}
	for _, name := range e.Catalog.TableNames() {
		if strings.HasPrefix(name, VolatilePrefix) {
			continue
		}
		t, err := e.Catalog.Table(name)
		if err != nil {
			return nil, err
		}
		mt := metaTable{
			Name:  name,
			Pages: toMetaPages(t.Heap.PageIDs()),
			Rows:  t.Heap.NumRows(),
		}
		for _, c := range t.Schema.Columns {
			mt.Columns = append(mt.Columns, metaColumn{Name: c.Name, Kind: uint8(c.Kind)})
		}
		for _, c := range t.Schema.Columns {
			cs := t.ColumnStats(c.Name)
			if cs == nil {
				continue
			}
			ms := metaColStats{
				Col:      c.Name,
				Count:    cs.Count,
				Distinct: cs.Distinct,
				HasRange: cs.HasRange,
				Min:      toMetaValue(cs.Min),
				Max:      toMetaValue(cs.Max),
			}
			if h := cs.Hist(); h != nil {
				mh := &metaHist{Total: h.Total}
				for _, b := range h.Buckets {
					mh.Buckets = append(mh.Buckets, metaBucket{
						Lo: b.Lo, Hi: b.Hi, Count: b.Count, Distinct: b.Distinct,
					})
				}
				ms.Hist = mh
			}
			mt.Stats = append(mt.Stats, ms)
		}
		for _, idx := range t.IndexList() {
			mt.Indexes = append(mt.Indexes, metaIndex{
				Column:  idx.Column,
				Root:    int64(idx.Tree.Root()),
				Pages:   toMetaPages(idx.Tree.PageIDs()),
				Height:  idx.Tree.Height(),
				Entries: idx.Tree.Len(),
			})
		}
		root.Tables = append(root.Tables, mt)
	}
	for _, v := range e.Catalog.Views() {
		if strings.HasPrefix(v.Name, VolatilePrefix) {
			continue
		}
		mv := metaView{Name: v.Name, Forced: v.Forced, Rels: v.Graph.Relations()}
		for _, s := range v.Graph.Selections() {
			mv.Sels = append(mv.Sels, metaSelection{
				Rel: s.Rel, Col: s.Col, Op: uint8(s.Op), Const: toMetaValue(s.Const),
			})
		}
		for _, j := range v.Graph.Joins() {
			mv.Joins = append(mv.Joins, metaJoin{
				LeftRel: j.LeftRel, LeftCol: j.LeftCol,
				RightRel: j.RightRel, RightCol: j.RightCol,
			})
		}
		root.Views = append(root.Views, mv)
	}
	if e.profileSrc != nil {
		p, err := e.profileSrc()
		if err != nil {
			return nil, err
		}
		root.Profile = p
		e.lastProfile = p
	} else {
		// No live learner attached yet (e.g. the seal commit during Open):
		// carry the recovered profile forward rather than dropping it.
		root.Profile = e.lastProfile
	}
	return json.Marshal(root)
}

// commitStmt commits a successful statement that changed table name; its one
// caller is the statement boundary, which holds stmtMu exclusively (no reader
// sees a half-committed table) and has put the pool's charge target back on
// the engine's sink, so the FlushAll below is charged to no statement. On
// in-memory engines it is a no-op; statements confined to the volatile
// speculation namespace skip the commit entirely (their pages die with the
// process, by design).
func (e *Engine) commitStmt(name string) error {
	if e.fileDisk == nil || strings.HasPrefix(name, VolatilePrefix) {
		return nil
	}
	e.durMu.Lock()
	defer e.durMu.Unlock()
	return e.commitLocked(true)
}

// commitLocked flushes dirty pages and appends one commit record. bump
// advances the applied-statement sequence (false for seal/close commits,
// which re-commit existing state) — once the record is written, so a commit
// that fails or panics leaves the sequence where it was.
func (e *Engine) commitLocked(bump bool) error {
	if err := e.Pool.FlushAll(); err != nil {
		return err
	}
	seq := e.appliedSeq
	if bump {
		seq++
	}
	blob, err := e.buildMetaLocked(seq)
	if err == nil {
		var flushed int
		flushed, err = e.fileDisk.Commit(blob)
		if flushed > 0 {
			// Checkpoint page flushes are real physical writes; the meter is
			// the single accounting point, so charge them here.
			e.sink.ChargePageWrite(int64(flushed))
			e.obsCheckpointPages.Add(int64(flushed))
		}
	}
	if err != nil {
		return err
	}
	e.appliedSeq = seq
	e.obsCommits.Inc()
	return nil
}

// Close commits the current state (capturing the latest learned profile)
// and releases the durable backend. In-memory engines close trivially.
func (e *Engine) Close() error {
	if e.fileDisk == nil {
		return nil
	}
	e.durMu.Lock()
	commitErr := e.commitLocked(false)
	e.durMu.Unlock()
	closeErr := e.fileDisk.Close()
	if commitErr != nil {
		return commitErr
	}
	return closeErr
}

// Checkpoint commits and forces the WAL to be folded into the page file.
func (e *Engine) Checkpoint() error {
	if e.fileDisk == nil {
		return nil
	}
	e.durMu.Lock()
	defer e.durMu.Unlock()
	if err := e.commitLocked(false); err != nil {
		return err
	}
	flushed, err := e.fileDisk.Checkpoint()
	if flushed > 0 {
		e.sink.ChargePageWrite(int64(flushed))
		e.obsCheckpointPages.Add(int64(flushed))
	}
	return err
}

// AppliedSeq reports the number of committed mutating statements — the
// resume point for a trace replayed over a recovered engine.
func (e *Engine) AppliedSeq() int64 {
	e.durMu.Lock()
	defer e.durMu.Unlock()
	return e.appliedSeq
}

// SetProfileSource attaches the learned-profile exporter consulted at each
// commit (the specdb layer owns the Learner; the engine only persists it).
func (e *Engine) SetProfileSource(fn func() ([]byte, error)) {
	e.durMu.Lock()
	defer e.durMu.Unlock()
	e.profileSrc = fn
}

// RecoveredProfile returns the learned-profile blob restored by recovery
// (nil on fresh databases and in-memory engines).
func (e *Engine) RecoveredProfile() []byte {
	e.durMu.Lock()
	defer e.durMu.Unlock()
	return e.recoveredProfile
}

// RecoveredOrphans reports how many orphan pages recovery reclaimed.
func (e *Engine) RecoveredOrphans() int {
	e.durMu.Lock()
	defer e.durMu.Unlock()
	return e.recoveredOrphans
}

// FileDisk exposes the durable backend (nil on in-memory engines).
func (e *Engine) FileDisk() *storage.FileDisk { return e.fileDisk }

// Durable reports whether the engine runs on a durable backend.
func (e *Engine) Durable() bool { return e.fileDisk != nil }
