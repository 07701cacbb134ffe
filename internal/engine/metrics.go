package engine

import (
	"specdb/internal/obs"
)

// Metrics returns the engine's metrics registry. Subsystems share it: the
// buffer pool mirrors its traffic counters here, speculators attach their
// lifecycle counters, and the engine itself records statement counts and
// durations. Callers wanting a consistent dump should use MetricsSnapshot,
// which refreshes derived gauges first.
func (e *Engine) Metrics() *obs.Registry { return e.metrics }

// Tracer returns the engine's span tracer. The engine does not own a
// simulated clock, so spans are opened by the components that do: sessions
// trace statements on their session clock and speculators trace manipulation
// issue→completion windows.
func (e *Engine) Tracer() *obs.Tracer { return e.tracer }

// MetricsSnapshot refreshes point-in-time gauges (buffer residency, B+-tree
// shapes, catalog sizes) and returns a snapshot of every
// metric. Counters in the snapshot are cumulative since engine construction.
func (e *Engine) MetricsSnapshot() obs.Snapshot {
	r := e.metrics
	r.Gauge("buffer.pool.capacity").Set(float64(e.Pool.Capacity()))
	r.Gauge("buffer.pool.resident").Set(float64(e.Pool.Resident()))
	r.Gauge("buffer.pool.staged").Set(float64(e.Pool.StagedCount()))
	r.Gauge("buffer.pool.hit_ratio").Set(e.Pool.Stats().HitRatio())

	var indexes, pages, splits, maxHeight int64
	tables := e.Catalog.TableNames()
	for _, name := range tables {
		t, err := e.Catalog.Table(name)
		if err != nil {
			continue // dropped between listing and lookup
		}
		for _, idx := range t.IndexList() {
			indexes++
			pages += int64(idx.Tree.NumPages())
			splits += idx.Tree.Splits()
			if h := int64(idx.Tree.Height()); h > maxHeight {
				maxHeight = h
			}
		}
	}
	r.Gauge("btree.indexes").Set(float64(indexes))
	r.Gauge("btree.pages").Set(float64(pages))
	r.Gauge("btree.splits").Set(float64(splits))
	r.Gauge("btree.height.max").Set(float64(maxHeight))
	r.Gauge("catalog.tables").Set(float64(len(tables)))
	r.Gauge("catalog.views").Set(float64(len(e.Catalog.Views())))
	return r.Snapshot()
}

// statementDurationBounds bucket simulated statement durations, in
// nanoseconds: 1ms … 100s in decade-and-a-half steps.
var statementDurationBounds = []int64{
	1e6, 3e6, 1e7, 3e7, 1e8, 3e8, 1e9, 3e9, 1e10, 3e10, 1e11,
}
