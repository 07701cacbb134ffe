package core

import (
	"math"

	"specdb/internal/engine"
	"specdb/internal/qgraph"
	"specdb/internal/sim"
	"specdb/internal/storage"
)

// CostModel evaluates manipulations with the local formula of Theorem 3.1:
//
//	Cost⊆(m) = f⊆(qm) × (cost(qm, m) − cost(qm, m∅))
//
// which is negative (beneficial) when answering qm from the materialized
// result is cheaper than computing it from scratch. We report the negated
// quantity as Benefit, extended with the Section 3.3 multi-query lookahead
// (expected reuse across the next n queries) and a completion-risk factor
// from the Learner's think-time model.
type CostModel struct {
	Eng     *engine.Engine
	Learner *Learner
	// Lookahead is the number of future queries n whose expected reuse adds
	// to the benefit (0 reproduces the single-query formula (2)).
	Lookahead int

	// plans holds what pricing reads of each graph's best plan, by graph key,
	// as planned at catalog version plansAt (DESIGN.md §5): a candidate is
	// planned once per version, however many walks score it.
	plans   map[string]planned
	plansAt uint64
}

// planned is what the cost model reads of a plan: its estimated cost and
// output rows.
type planned struct {
	cost sim.Duration
	rows float64
}

// The cost model's guards, constants since every speculator ran with the
// same values (DESIGN.md §5).
const (
	// minCompletionProb skips manipulations that are too unlikely to finish
	// before GO: issuing them would occupy the single manipulation slot
	// (Section 3.1's third convention) that a cheaper, completable
	// manipulation could use. Every benefit is also multiplied by the
	// probability that the manipulation completes before GO.
	minCompletionProb = 0.15
	// riskAversion discounts the benefit by a fraction of the post-
	// materialization access cost. Properties P1/P2 are approximations
	// (Section 3.3): a forced rewrite can lose in the final query's context
	// even when the local formula says it wins — most often for wide,
	// unselective join materializations that displace indexed base
	// relations (the paper's own penalty mechanism, Section 6.1). The risk
	// term makes the Speculator conservative about exactly those.
	riskAversion = 0.35
	// compressionThreshold gates materializations on actually shrinking
	// their inputs: the estimated result pages must be at most this
	// fraction of the source relations' pages. The paper's Section 1
	// example is explicit that the win is the 1/f I/O reduction of reading
	// a selective result instead of its inputs; a materialization that is
	// as large as its inputs (a raw FK join, an unselective predicate)
	// cannot deliver it and only displaces indexed access paths.
	compressionThreshold = 0.65
)

// Score fills m.EstDuration and m.Benefit. graphKey is a materialization's
// m.Graph.Key(), or "" to build it if planning needs it: the admission walk
// passes the one inside the candidate's ledger key. elapsedFormulation is how
// long the current formulation has been running (seconds), for completion
// risk.
func (cm *CostModel) Score(m *Manipulation, graphKey string, elapsedFormulation float64) error {
	var base, after, duration sim.Duration
	switch m.Kind {
	case ManipMaterialize:
		p, err := cm.plan(m.Graph, graphKey)
		if err != nil {
			return err
		}
		resultPages := cm.estimatePages(m.Graph, p.rows)
		m.EstPages = int(math.Ceil(resultPages))
		sourcePages := 0.0
		for _, rel := range m.Graph.Relations() {
			if t, err := cm.Eng.Catalog.Table(rel); err == nil {
				sourcePages += float64(t.NumPages())
			}
		}
		if resultPages > compressionThreshold*sourcePages {
			m.EstDuration, m.Benefit = 0, 0
			return nil
		}
		base = p.cost
		after = cm.scanCostAfterMaterialize(m.Graph, p.rows)
		duration = cm.materializeDuration(m.Graph, p.cost, p.rows)
	case ManipIndex:
		base, after, duration = cm.indexDeltas(m)
		if t, err := cm.Eng.Catalog.Table(m.Rel); err == nil {
			// ~16 bytes per (key, RID) entry retained in the tree's pages.
			m.EstPages = int(math.Ceil(float64(t.RowCount()) * 16 / float64(cm.Eng.Disk.PageSize())))
		}
	case ManipHistogram:
		base, after, duration = cm.histogramDeltas(m)
		m.EstPages = 1
	case ManipStage:
		base, after, duration = cm.stageDeltas(m)
		if t, err := cm.Eng.Catalog.Table(m.Rel); err == nil {
			m.EstPages = t.NumPages()
		}
	default:
		m.EstDuration, m.Benefit = 0, 0
		return nil
	}
	m.EstDuration = duration

	saving := base - after
	if saving <= 0 {
		m.Benefit = 0
		return nil
	}
	f := cm.Learner.SubgraphSurvival(m.Graph)
	benefit := f*float64(saving) - riskAversion*float64(after)
	if benefit <= 0 {
		m.Benefit = 0
		return nil
	}

	if cm.Lookahead > 0 {
		r := cm.Learner.SubgraphRetention(m.Graph)
		reuse := 0.0
		for i := 1; i <= cm.Lookahead; i++ {
			reuse += math.Pow(r, float64(i))
		}
		benefit *= 1 + reuse
	}
	p := cm.Learner.CompletionProbability(elapsedFormulation, duration.Seconds())
	if p < minCompletionProb {
		m.Benefit = 0
		return nil
	}
	benefit *= p
	m.Benefit = sim.Duration(benefit)
	return nil
}

// ScorePredicted prices a predicted-final manipulation (DESIGN.md §14). Its
// benefit is the whole final query's execution cost weighted by the model's
// confidence that the user actually ends there — there is no reuse lookahead
// (a final is consumed by exactly one GO) and no separate completion-risk
// term (the confidence already prices the prediction failing).
func (cm *CostModel) ScorePredicted(m *Manipulation, confidence float64) error {
	p, err := cm.plan(m.Graph, "")
	if err != nil {
		return err
	}
	m.EstPages = int(math.Ceil(cm.estimatePages(m.Graph, p.rows)))
	m.EstDuration = p.cost
	m.Benefit = sim.Duration(confidence * float64(p.cost))
	return nil
}

// plan returns the cost and rows of g's best plan, planning g only if it was
// not planned at the catalog's current version; key is g.Key(), or "" to
// build it here. A plan is kept only if the version read before planning
// still holds after it: a change that lands while the optimizer runs may or
// may not be in the plan, so the plan belongs to no version. The catalog
// advances its version after each change is visible, so an unchanged version
// means the planner read that version's state.
func (cm *CostModel) plan(g *qgraph.Graph, key string) (planned, error) {
	v := cm.Eng.Catalog.Version()
	if cm.plans == nil {
		cm.plans = make(map[string]planned)
	}
	if v != cm.plansAt {
		clear(cm.plans)
		cm.plansAt = v
	}
	if key == "" {
		key = g.Key()
	}
	if p, ok := cm.plans[key]; ok {
		return p, nil
	}
	node, err := cm.Eng.PlanGraph(g)
	if err != nil {
		return planned{}, err
	}
	p := planned{cost: node.Cost(), rows: node.Rows()}
	if cm.Eng.Catalog.Version() == v {
		cm.plans[key] = p
	}
	return p, nil
}

// scanCostAfterMaterialize estimates cost(qm, m): scanning the materialized
// result instead of computing qm. Row width is estimated from the source
// relations' storage footprints.
func (cm *CostModel) scanCostAfterMaterialize(g *qgraph.Graph, rows float64) sim.Duration {
	pages := cm.estimatePages(g, rows)
	rates := cm.Eng.Rates()
	return sim.Duration(pages)*rates.PageRead + sim.Duration(rows)*rates.Tuple
}

// materializeDuration estimates how long the manipulation runs: executing
// qm plus writing and analyzing the result.
func (cm *CostModel) materializeDuration(g *qgraph.Graph, execCost sim.Duration, rows float64) sim.Duration {
	pages := cm.estimatePages(g, rows)
	rates := cm.Eng.Rates()
	writeCost := sim.Duration(pages) * rates.PageWrite
	analyzeCost := sim.Duration(pages)*rates.PageRead + sim.Duration(rows)*rates.Tuple
	return execCost + writeCost + analyzeCost
}

// MinEstPages is the smallest footprint the cost model ever assigns a priced
// manipulation: estimatePages clamps every materialization estimate to at
// least one page. Admission control uses it as the base of its conservative
// floor for jobs whose EstPages was never filled in — a zero estimate means
// "unscored", not "free".
const MinEstPages = 1

// estimatePages converts an estimated row count for sub-query g into pages,
// using the combined row width of g's relations.
func (cm *CostModel) estimatePages(g *qgraph.Graph, rows float64) float64 {
	bytesPerRow := 0.0
	for _, rel := range g.Relations() {
		t, err := cm.Eng.Catalog.Table(rel)
		if err != nil || t.RowCount() == 0 {
			bytesPerRow += 64
			continue
		}
		bytesPerRow += float64(t.NumPages()) * float64(cm.Eng.Disk.PageSize()) / float64(t.RowCount())
	}
	if bytesPerRow <= 0 {
		bytesPerRow = 64
	}
	pages := rows * bytesPerRow / float64(cm.Eng.Disk.PageSize())
	if pages < 1 {
		pages = 1
	}
	return pages
}

// indexDeltas prices index creation: the benefit is the selection sub-query
// running through an index scan instead of its current plan.
func (cm *CostModel) indexDeltas(m *Manipulation) (base, after, duration sim.Duration) {
	t, err := cm.Eng.Catalog.Table(m.Rel)
	if err != nil {
		return 0, 0, 0
	}
	p, err := cm.plan(m.Graph, "")
	if err != nil {
		return 0, 0, 0
	}
	base = p.cost
	rates := cm.Eng.Rates()
	match := p.rows
	// Index scan estimate: descent + unclustered fetches, capped at the table
	// size, since the scan reads its matches in heap order (exec.IndexScan).
	fetch := match
	if cap := float64(t.NumPages()); fetch > cap {
		fetch = cap
	}
	after = sim.Duration(3+fetch)*rates.PageRead + sim.Duration(match)*rates.Tuple
	// Build: scan + sort + write ≈ one read pass plus one write pass of
	// key-sized pages (≈ 1/4 of the heap).
	n := float64(t.RowCount())
	duration = sim.Duration(t.NumPages())*rates.PageRead +
		sim.Duration(n*2)*rates.Tuple +
		sim.Duration(float64(t.NumPages())/4+1)*rates.PageWrite
	return base, after, duration
}

// histogramDeltas prices histogram creation. Its benefit — better optimizer
// estimates — cannot be measured against a specific plan, so it is priced
// with a small generic improvement factor; the paper reaches the same
// conclusion experimentally (Section 3.2): low cost, low and diffuse payoff.
func (cm *CostModel) histogramDeltas(m *Manipulation) (base, after, duration sim.Duration) {
	t, err := cm.Eng.Catalog.Table(m.Rel)
	if err != nil {
		return 0, 0, 0
	}
	if t.ColumnStats(m.Col).Hist() != nil {
		return 0, 0, 0 // already present: no benefit
	}
	p, err := cm.plan(m.Graph, "")
	if err != nil {
		return 0, 0, 0
	}
	const improvementFactor = 0.05
	base = p.cost
	after = sim.Duration(float64(base) * (1 - improvementFactor))
	rates := cm.Eng.Rates()
	duration = sim.Duration(t.NumPages())*rates.PageRead + sim.Duration(t.RowCount())*rates.Tuple
	return base, after, duration
}

// stageDeltas prices data staging: pre-reading a relation's pages saves
// exactly those reads for the final query, bounded by the staging budget.
func (cm *CostModel) stageDeltas(m *Manipulation) (base, after, duration sim.Duration) {
	t, err := cm.Eng.Catalog.Table(m.Rel)
	if err != nil {
		return 0, 0, 0
	}
	pages := t.NumPages()
	budget := cm.Eng.Pool.Capacity() / 2
	if pages > budget {
		pages = budget
	}
	// Count only pages not already resident.
	missing := 0
	for i, id := range t.Heap.PageIDs() {
		if i >= pages {
			break
		}
		if !cm.Eng.Pool.Contains(storage.PageID(id)) {
			missing++
		}
	}
	rates := cm.Eng.Rates()
	saved := sim.Duration(missing) * rates.PageRead
	base = saved
	after = 0
	duration = saved
	return base, after, duration
}
