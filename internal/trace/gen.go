package trace

import (
	"fmt"
	"math"
	"sort"

	"specdb/internal/qgraph"
	"specdb/internal/sim"
	"specdb/internal/tuple"
)

// SelectionTemplate describes a column users put selection predicates on.
type SelectionTemplate struct {
	Rel, Col string
	Kind     tuple.Kind
	Min, Max float64
	// Skew is the power-law exponent of the column's data distribution:
	// P(X ≤ min + (max−min)·u) ≈ u^(1/Skew). 1 means uniform; higher means
	// mass concentrates near Min. The generator uses it to draw constants
	// in *quantile* space, so predicates have realistic selectivities on
	// skewed data — exploring users chase selective "interesting regions"
	// (paper Section 4.1). Zero defaults to 1.
	Skew float64
}

// Vocabulary is the schema knowledge the synthetic user model draws from:
// which relations exist, how they join (the FK graph), and which columns
// carry selections. The harness builds it from the TPC-H subset.
type Vocabulary struct {
	Relations  []string
	Joins      []qgraph.Join
	Selections []SelectionTemplate
	// GrowthJoins, when non-nil, restricts the edges the generator *grows*
	// along (a spanning set of the FK graph); after growth, every Joins
	// edge whose endpoints are both present is added too, so generated
	// queries are edge-induced subgraphs. This matches how users join
	// along natural FK paths and prevents degenerate shapes where two fact
	// tables meet only through a tiny dimension (an ×N fan-out join no
	// explorer would pose).
	GrowthJoins []qgraph.Join
}

// growthJoins returns the growth edge set.
func (v *Vocabulary) growthJoins() []qgraph.Join {
	if v.GrowthJoins != nil {
		return v.GrowthJoins
	}
	return v.Joins
}

// selectionsOn returns the templates for rel.
func (v *Vocabulary) selectionsOn(rel string) []SelectionTemplate {
	var out []SelectionTemplate
	for _, s := range v.Selections {
		if s.Rel == rel {
			out = append(out, s)
		}
	}
	return out
}

// GenConfig parameterizes the synthetic user model: which user, how many
// GO events and how many exploration tasks. The user model itself is the
// Section 5 calibration below.
type GenConfig struct {
	Seed       uint64
	User       string
	NumQueries int // GO events per trace
	NumTasks   int // exploration tasks (canvas clears) per trace
}

// The user model's calibration reproduces every Section 5 statistic: ~42
// queries per trace, 1–2 selections and ~4 relations per query, selection
// persistence ≈3 queries, join persistence ≈10, and the formulation-duration
// distribution (min 1 / p25 4 / median 11 / p75 29 / mean 28 / max 680
// seconds). A formulation lasts a clamped lognormal draw whose median is
// 11 s; the post-GO result-viewing pause is a lognormal draw whose median is
// 8 s.
const (
	thinkMedian = 11   // seconds; the lognormal location is its log
	thinkSigma  = 1.42 // lognormal scale of formulation duration
	minThink    = 1    // clamp, seconds
	maxThink    = 680  // clamp, seconds
	viewMedian  = 8    // seconds; the lognormal location is its log
	viewSigma   = 0.8
	// selectionDropProb is the chance an existing selection is removed on
	// each query transition (persistence ≈ 1/p queries).
	selectionDropProb = 1.0 / 3
	// joinDropProb likewise for join edges.
	joinDropProb = 1.0 / 10
	// churnProb is the chance a query's formulation includes a transient
	// part that is removed again before GO — the uncertainty the Learner
	// must cope with.
	churnProb = 0.22
	// targetRelations is the typical relation count of a final query.
	targetRelations = 4
	// maxSelections bounds selections per query.
	maxSelections = 2
)

// DefaultGenConfig returns the Section 5 configuration for one user.
func DefaultGenConfig(user string, seed uint64) GenConfig {
	return GenConfig{Seed: seed, User: user, NumQueries: 42, NumTasks: 5}
}

// Generate produces one synthetic session trace.
func Generate(v *Vocabulary, cfg GenConfig) (*Trace, error) {
	if len(v.Relations) == 0 || len(v.Joins) == 0 || len(v.Selections) == 0 {
		return nil, fmt.Errorf("trace: vocabulary is incomplete")
	}
	if cfg.NumQueries <= 0 {
		return nil, fmt.Errorf("trace: NumQueries must be positive")
	}
	if cfg.NumTasks <= 0 {
		cfg.NumTasks = 1
	}
	g := &generator{v: v, cfg: cfg, r: sim.NewRand(cfg.Seed), state: qgraph.New()}
	return g.run()
}

type generator struct {
	v     *Vocabulary
	cfg   GenConfig
	r     *sim.Rand
	state *qgraph.Graph // the previous final query (what is on screen)
	now   float64
	out   []Event
}

// edit is one pending formulation step for the upcoming query.
type edit struct {
	ev Event
}

func (g *generator) run() (*Trace, error) {
	queriesPerTask := (g.cfg.NumQueries + g.cfg.NumTasks - 1) / g.cfg.NumTasks
	qIndex := 0
	for task := 0; task < g.cfg.NumTasks && qIndex < g.cfg.NumQueries; task++ {
		clearNeeded := task > 0
		for k := 0; k < queriesPerTask && qIndex < g.cfg.NumQueries; k++ {
			g.emitQuery(clearNeeded && k == 0)
			qIndex++
		}
	}
	t := &Trace{User: g.cfg.User, Seed: g.cfg.Seed, Events: g.out}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("trace: generator produced invalid trace: %w", err)
	}
	return t, nil
}

// emitQuery mutates the on-screen query into the next final query and emits
// the formulation events for it, ending with GO.
func (g *generator) emitQuery(clearFirst bool) {
	var edits []edit
	if clearFirst || g.state.IsEmpty() {
		if clearFirst {
			edits = append(edits, edit{Event{Kind: EvClear}})
		}
		g.state = qgraph.New()
	}
	target := g.state.Clone()

	// 1. Drop selections (persistence model).
	for _, s := range target.Selections() {
		if g.r.Float64() < selectionDropProb {
			target.RemoveSelection(s)
			sj := FromSelection(s)
			edits = append(edits, edit{Event{Kind: EvRemoveSelection, Sel: &sj}})
		}
	}
	// 2. Drop joins; then prune disconnected fragments.
	for _, j := range target.Joins() {
		if g.r.Float64() < joinDropProb {
			target.RemoveJoin(j)
			jj := FromJoin(j)
			edits = append(edits, edit{Event{Kind: EvRemoveJoin, Join: &jj}})
		}
	}
	edits = append(edits, g.pruneDisconnected(target)...)

	// 3. Grow toward the target relation count via FK random walk.
	targetRels := targetRelations + g.r.Intn(3) - 1 // ±1
	if targetRels < 1 {
		targetRels = 1
	}
	for target.NumRelations() < targetRels {
		j, ok := g.pickGrowthJoin(target)
		if !ok {
			break
		}
		target.AddJoin(j)
		jj := FromJoin(j)
		edits = append(edits, edit{Event{Kind: EvAddJoin, Join: &jj}})
	}
	// Edge-induced closure: add every vocabulary edge both of whose
	// relations are on the canvas (users join along all natural FK paths).
	for _, j := range g.v.Joins {
		if target.HasRelation(j.LeftRel) && target.HasRelation(j.RightRel) && !target.HasJoin(j) {
			target.AddJoin(j)
			jj := FromJoin(j)
			edits = append(edits, edit{Event{Kind: EvAddJoin, Join: &jj}})
		}
	}

	// 4. Top up selections to 1..maxSelections.
	wantSels := 1 + g.r.Intn(maxSelections)
	for target.NumSelections() < wantSels {
		s, ok := g.pickSelection(target)
		if !ok {
			break
		}
		target.AddSelection(s)
		sj := FromSelection(s)
		edits = append(edits, edit{Event{Kind: EvAddSelection, Sel: &sj}})
	}

	// 5. Churn: a transient selection added and removed mid-formulation.
	if g.r.Float64() < churnProb {
		if s, ok := g.pickSelection(target); ok {
			sj := FromSelection(s)
			pos := 0
			if len(edits) > 0 {
				pos = g.r.Intn(len(edits))
			}
			churn := []edit{
				{Event{Kind: EvAddSelection, Sel: &sj}},
				{Event{Kind: EvRemoveSelection, Sel: &sj}},
			}
			rest := append([]edit{churn[0]}, edits[pos:]...)
			rest = append(rest, churn[1])
			edits = append(edits[:pos:pos], rest...)
		}
	}

	// 6. Projections: occasionally annotate 1–2 output columns.
	if g.r.Float64() < 0.5 {
		projs := g.pickProjections(target)
		if len(projs) > 0 {
			edits = append(edits, edit{Event{Kind: EvSetProjections, Projs: projs}})
		}
	} else {
		edits = append(edits, edit{Event{Kind: EvSetProjections}}) // SELECT *
	}

	if len(edits) == 0 {
		// Degenerate: nothing changed; force a constant tweak so the trace
		// still has a formulation phase.
		if s, ok := g.pickSelection(target); ok {
			target.AddSelection(s)
			sj := FromSelection(s)
			edits = append(edits, edit{Event{Kind: EvAddSelection, Sel: &sj}})
		}
	}

	// Distribute the formulation duration over the gaps after each edit:
	// the first edit starts the formulation clock (the paper measures first
	// modification → GO), so it carries no leading gap.
	duration := g.thinkTime()
	gaps := g.splitDuration(duration, len(edits))
	for i, ed := range edits {
		ev := ed.ev
		ev.AtSeconds = g.now
		g.out = append(g.out, ev)
		g.now += gaps[i]
	}
	g.out = append(g.out, Event{Kind: EvGo, AtSeconds: g.now})

	// Result-viewing pause before the next query's formulation begins.
	g.now += clamp(g.r.LogNormal(math.Log(viewMedian), viewSigma), 1, 120)
	g.state = target
}

// pruneDisconnected keeps the largest connected component, emitting removal
// events for everything else.
func (g *generator) pruneDisconnected(target *qgraph.Graph) []edit {
	var edits []edit
	for {
		if target.IsConnected() {
			return edits
		}
		// Find components; drop the smallest one.
		comps := graphComponents(target)
		sort.Slice(comps, func(i, j int) bool { return len(comps[i]) < len(comps[j]) })
		for _, rel := range comps[0] {
			target.RemoveRelation(rel)
			edits = append(edits, edit{Event{Kind: EvRemoveRelation, Rel: rel}})
		}
	}
}

func graphComponents(g *qgraph.Graph) [][]string {
	rels := g.Relations()
	seen := make(map[string]bool)
	var comps [][]string
	for _, start := range rels {
		if seen[start] {
			continue
		}
		var comp []string
		frontier := []string{start}
		seen[start] = true
		for len(frontier) > 0 {
			r := frontier[len(frontier)-1]
			frontier = frontier[:len(frontier)-1]
			comp = append(comp, r)
			for _, j := range g.JoinsOn(r) {
				if other, ok := j.Other(r); ok && !seen[other] {
					seen[other] = true
					frontier = append(frontier, other)
				}
			}
		}
		sort.Strings(comp)
		comps = append(comps, comp)
	}
	return comps
}

// pickGrowthJoin picks an FK edge that either connects a present relation to
// a new one, or (if the graph is empty) seeds it.
func (g *generator) pickGrowthJoin(target *qgraph.Graph) (qgraph.Join, bool) {
	var candidates []qgraph.Join
	if target.NumRelations() == 0 {
		candidates = g.v.growthJoins()
	} else {
		for _, j := range g.v.growthJoins() {
			lIn := target.HasRelation(j.LeftRel)
			rIn := target.HasRelation(j.RightRel)
			if lIn != rIn { // extends the graph by one relation
				candidates = append(candidates, j)
			}
		}
	}
	if len(candidates) == 0 {
		return qgraph.Join{}, false
	}
	return candidates[g.r.Intn(len(candidates))], true
}

// pickSelection draws a selection predicate on a present relation that is
// not already in the graph.
func (g *generator) pickSelection(target *qgraph.Graph) (qgraph.Selection, bool) {
	rels := target.Relations()
	if len(rels) == 0 {
		rels = g.v.Relations
	}
	for attempt := 0; attempt < 12; attempt++ {
		rel := rels[g.r.Intn(len(rels))]
		tmpls := g.v.selectionsOn(rel)
		if len(tmpls) == 0 {
			continue
		}
		tmpl := tmpls[g.r.Intn(len(tmpls))]
		s := g.instantiate(tmpl)
		if !target.HasSelection(s) {
			return s, true
		}
	}
	return qgraph.Selection{}, false
}

// instantiate draws an operator and constant for a selection template. The
// constant is drawn in quantile space: a target selectivity is chosen
// (biased toward selective predicates — exploratory users home in on
// "interesting regions" of skewed data, per Section 4.1), then inverted
// through the column's approximate power-law CDF.
func (g *generator) instantiate(t SelectionTemplate) qgraph.Selection {
	ops := []tuple.CmpOp{tuple.CmpLT, tuple.CmpLE, tuple.CmpGT, tuple.CmpGE}
	smallDomain := t.Kind == tuple.KindInt && t.Max-t.Min <= 64
	if smallDomain {
		ops = append(ops, tuple.CmpEQ, tuple.CmpEQ) // equality common on small domains
	}
	op := ops[g.r.Intn(len(ops))]

	// Target fraction of rows the predicate keeps: mostly selective, with a
	// tail of broad predicates (median ≈ 0.11).
	r := g.r.Float64()
	targetSel := 0.02 + 0.68*r*r*r
	quantile := targetSel // fraction of rows BELOW the constant
	switch op {
	case tuple.CmpGT, tuple.CmpGE:
		quantile = 1 - targetSel
	case tuple.CmpEQ:
		quantile = g.r.Float64() * 0.6 // point query somewhere in the hot region
	}
	skew := t.Skew
	if skew <= 0 {
		skew = 1
	}
	x := t.Min + (t.Max-t.Min)*math.Pow(quantile, skew)
	var c tuple.Value
	switch t.Kind {
	case tuple.KindInt:
		c = tuple.NewInt(int64(math.Round(x)))
	case tuple.KindDate:
		c = tuple.NewDate(int64(math.Round(x)))
	default:
		c = tuple.NewFloat(math.Round(x*100) / 100)
	}
	return qgraph.Selection{Rel: t.Rel, Col: t.Col, Op: op, Const: c}
}

// pickProjections chooses 1–2 selection-template columns from present
// relations as output annotations.
func (g *generator) pickProjections(target *qgraph.Graph) []string {
	var pool []string
	for _, rel := range target.Relations() {
		for _, t := range g.v.selectionsOn(rel) {
			pool = append(pool, t.Rel+"."+t.Col)
		}
	}
	if len(pool) == 0 {
		return nil
	}
	n := 1 + g.r.Intn(2)
	if n > len(pool) {
		n = len(pool)
	}
	g.r.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	out := append([]string(nil), pool[:n]...)
	sort.Strings(out)
	return out
}

// thinkTime draws one formulation duration.
func (g *generator) thinkTime() float64 {
	return clamp(g.r.LogNormal(math.Log(thinkMedian), thinkSigma), minThink, maxThink)
}

// splitDuration splits d into n positive gaps with random proportions.
func (g *generator) splitDuration(d float64, n int) []float64 {
	weights := make([]float64, n)
	total := 0.0
	for i := range weights {
		w := -math.Log(1 - g.r.Float64()) // Exp(1)
		if w < 1e-6 {
			w = 1e-6
		}
		weights[i] = w
		total += w
	}
	gaps := make([]float64, n)
	for i, w := range weights {
		gaps[i] = d * w / total
	}
	return gaps
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// GenerateCorpus produces the experiment's trace corpus: numUsers sessions
// with per-user seeds derived from seed.
func GenerateCorpus(v *Vocabulary, numUsers int, seed uint64) ([]*Trace, error) {
	traces := make([]*Trace, 0, numUsers)
	for i := 0; i < numUsers; i++ {
		cfg := DefaultGenConfig(fmt.Sprintf("user%02d", i+1), seed+uint64(i)*1000003)
		// Users differ a little in verbosity, like the paper's mixed-
		// expertise subjects.
		r := sim.NewRand(cfg.Seed ^ 0xabcdef)
		cfg.NumQueries = 36 + r.Intn(13) // 36..48, mean ≈ 42
		t, err := Generate(v, cfg)
		if err != nil {
			return nil, err
		}
		traces = append(traces, t)
	}
	return traces, nil
}
