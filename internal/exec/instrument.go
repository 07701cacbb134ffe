package exec

import (
	"sync"

	"specdb/internal/sim"
	"specdb/internal/tuple"
)

// OpStats are the actuals recorded for one plan node by a Profiler: how many
// rows it produced and how much simulated work happened inside its subtree.
// Work is *inclusive* — it covers the node and everything below it, the same
// convention EXPLAIN ANALYZE output uses for per-node cost.
type OpStats struct {
	// Rows is the number of rows the operator returned from Next.
	Rows int64
	// Opens counts Open calls (>1 for the inner side of a re-opened loop).
	Opens int64
	// Work is the meter delta observed across the operator's Open and Next
	// calls: page reads/writes and tuples charged while control was inside
	// the subtree rooted at this operator.
	Work sim.Work
}

// Profiler records OpStats per plan node during one instrumented execution.
// Install it on a Context via Attach; plan Build methods route their
// iterators through Context.Instrument, and the wrapper iterators report
// here. Attribution is exact by construction: the meter is the statement's
// own (the engine makes one per statement and the context's pool view charges
// it), so it moves only for this statement however many others are running.
type Profiler struct {
	mu    sync.Mutex
	stats map[any]*OpStats
}

// NewProfiler returns an empty profiler.
func NewProfiler() *Profiler {
	return &Profiler{stats: make(map[any]*OpStats)}
}

// Attach installs the profiler as ctx's Observe hook; the wrappers read work
// deltas from ctx.Meter.
func (p *Profiler) Attach(ctx *Context) {
	ctx.Observe = func(node any, it Iterator) Iterator {
		return &profiledIter{inner: it, stats: p.statsFor(node), ctx: ctx}
	}
}

// Stats returns the actuals recorded for node, or nil if the node never
// produced an instrumented iterator (e.g. a fused index-lookup inner side).
func (p *Profiler) Stats(node any) *OpStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats[node]
}

func (p *Profiler) statsFor(node any) *OpStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s, ok := p.stats[node]
	if !ok {
		s = &OpStats{}
		p.stats[node] = s
	}
	return s
}

// profiledIter wraps an operator, snapshotting the statement's meter around Open
// and Next to accumulate the subtree's inclusive work. It charges nothing of
// its own — before each snapshot it hands the meter the tuples the operators
// have counted so far, which only moves up a charge the statement makes anyway
// — so instrumented runs measure identically to bare ones, and a tuple is
// attributed to the call it was counted in.
type profiledIter struct {
	inner Iterator
	stats *OpStats
	ctx   *Context
	gate  *KeyGate // the hash join key test forwarded to inner, if it took one
}

// Gate forwards a hash join's key test, so a profiled plan gates the scans a
// bare one does. A record the scan then skips is a row it would have returned
// without the test, and Next counts it as one.
func (p *profiledIter) Gate(g *KeyGate) bool {
	inner, ok := asGated(p.inner)
	if !ok || !inner.Gate(g) {
		return false
	}
	p.gate = g
	return true
}

// skipped is the forwarded gate's count of skipped records.
func (p *profiledIter) skipped() int64 {
	if p.gate == nil {
		return 0
	}
	return p.gate.skipped
}

func (p *profiledIter) snapshot() sim.Work {
	p.ctx.flush()
	return p.ctx.Meter.Snapshot()
}

func (p *profiledIter) Open() error {
	before := p.snapshot()
	err := p.inner.Open()
	p.addWork(before)
	p.stats.Opens++
	return err
}

func (p *profiledIter) Next() (tuple.Row, bool, error) {
	before, skipped := p.snapshot(), p.skipped()
	row, ok, err := p.inner.Next()
	p.addWork(before)
	p.stats.Rows += p.skipped() - skipped
	if ok && err == nil {
		p.stats.Rows++
	}
	return row, ok, err
}

func (p *profiledIter) Close() error          { return p.inner.Close() }
func (p *profiledIter) Schema() *tuple.Schema { return p.inner.Schema() }
func (p *profiledIter) StoredLen() int        { return p.inner.StoredLen() }

// Prune forwards the live columns, so a profiled plan decodes and copies
// what a bare one does.
func (p *profiledIter) Prune(live tuple.ColSet) { prune(p.inner, live) }

func (p *profiledIter) addWork(before sim.Work) {
	p.stats.Work = p.stats.Work.Add(p.snapshot().Sub(before))
}
