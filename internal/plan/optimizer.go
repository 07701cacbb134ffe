package plan

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"specdb/internal/btree"
	"specdb/internal/catalog"
	"specdb/internal/qgraph"
	"specdb/internal/sim"
	"specdb/internal/tuple"
)

// Options configures an optimization run.
type Options struct {
	// Rates expresses plan costs in simulated time.
	Rates sim.CostRates
	// UseViews enables *optional* materialized views (query-materialization
	// semantics). Views marked Forced are applied regardless — that is what
	// query rewriting means.
	UseViews bool
	// WorkMemBytes is the per-join memory budget (spill threshold); see
	// exec.Context.WorkMemBytes.
	WorkMemBytes int64
	// AvoidViews plans against base tables only, ignoring even forced views.
	// The engine sets it when transparently replanning a query whose
	// view-backed plan failed to execute (DESIGN.md §8): correctness never
	// depends on speculative objects.
	AvoidViews bool
	// AvoidIndexes disables index access paths and index-nested-loop joins,
	// for the same degraded replan path.
	AvoidIndexes bool
}

// maxDPUnits bounds the dynamic-programming join search. The paper's
// interface works over a six-table schema, so this is generous.
const maxDPUnits = 12

// Optimize produces the cheapest physical plan for a bound query. It
// enumerates materialized-view covers (none / each single matching view /
// a greedy disjoint packing), plans each cover with dynamic-programming join
// ordering and access-path selection, and returns the overall cheapest plan
// topped with the query's projection.
func Optimize(cat *catalog.Catalog, q *Query, opt Options) (Node, error) {
	covers := enumerateCovers(cat, q.Graph, opt.UseViews, opt.AvoidViews)
	var best Node
	for _, cover := range covers {
		node, err := planCover(cat, q, cover, opt)
		if err != nil {
			return nil, err
		}
		if best == nil || node.Cost() < best.Cost() {
			best = node
		}
	}
	if best == nil {
		return nil, fmt.Errorf("plan: no plan produced")
	}
	return best, nil
}

// enumerateCovers yields sets of disjoint matching views to consider. The
// empty cover (base relations only) is always included unless forced views
// exist, in which case every cover must include the greedy-disjoint forced
// set (query-rewriting semantics).
func enumerateCovers(cat *catalog.Catalog, g *qgraph.Graph, useViews, avoidViews bool) [][]*catalog.MatView {
	if avoidViews {
		// Degraded replan: base relations only, forced or not.
		return [][]*catalog.MatView{nil}
	}
	matching := cat.MatchingViews(g)
	var forced, optional []*catalog.MatView
	for _, v := range matching {
		if v.Forced {
			forced = append(forced, v)
		} else if useViews {
			optional = append(optional, v)
		}
	}
	base := greedyDisjoint(forced, nil)

	seen := make(map[string]bool)
	var covers [][]*catalog.MatView
	add := func(c []*catalog.MatView) {
		key := coverKey(c)
		if !seen[key] {
			seen[key] = true
			covers = append(covers, c)
		}
	}
	add(base)
	for _, v := range optional {
		if disjointFromAll(v, base) {
			add(append(append([]*catalog.MatView(nil), base...), v))
		}
	}
	add(greedyDisjoint(optional, base))
	return covers
}

// greedyDisjoint packs views with disjoint relation sets, preferring larger
// (more edges, then more relations) views; seed views are taken first and
// always kept.
func greedyDisjoint(views []*catalog.MatView, seed []*catalog.MatView) []*catalog.MatView {
	sorted := append([]*catalog.MatView(nil), views...)
	sort.Slice(sorted, func(i, j int) bool {
		gi, gj := sorted[i].Graph, sorted[j].Graph
		si := gi.NumJoins()*10 + gi.NumSelections() + gi.NumRelations()*5
		sj := gj.NumJoins()*10 + gj.NumSelections() + gj.NumRelations()*5
		if si != sj {
			return si > sj
		}
		return sorted[i].Name < sorted[j].Name
	})
	out := append([]*catalog.MatView(nil), seed...)
	for _, v := range sorted {
		if disjointFromAll(v, out) {
			out = append(out, v)
		}
	}
	return out
}

func disjointFromAll(v *catalog.MatView, chosen []*catalog.MatView) bool {
	for _, c := range chosen {
		if c == v {
			return false
		}
		for _, r := range v.Graph.Relations() {
			if c.Graph.HasRelation(r) {
				return false
			}
		}
	}
	return true
}

func coverKey(c []*catalog.MatView) string {
	names := make([]string, len(c))
	for i, v := range c {
		names[i] = v.Name
	}
	sort.Strings(names)
	key := ""
	for _, n := range names {
		key += n + "|"
	}
	return key
}

// unit is one leaf of the join search: a base relation or a view collapsing
// several relations.
type unit struct {
	table      *catalog.Table
	qualifier  string // "" for views
	rels       map[string]bool
	filters    []PredSpec
	colFilters []JoinEdgeSpec
}

// crossEdge is a join edge between two units, as qualified column names.
type crossEdge struct {
	a, b       int // unit indexes, a < b
	aCol, bCol string
}

// planCover plans the query for one choice of views.
func planCover(cat *catalog.Catalog, q *Query, cover []*catalog.MatView, opt Options) (Node, error) {
	g := q.Graph
	units, err := makeUnits(cat, g, cover)
	if err != nil {
		return nil, err
	}
	if len(units) > maxDPUnits {
		return nil, fmt.Errorf("plan: %d join units exceed the optimizer limit of %d", len(units), maxDPUnits)
	}

	relToUnit := make(map[string]int)
	for i, u := range units {
		for r := range u.rels {
			relToUnit[r] = i
		}
	}
	var edges []crossEdge
	for _, j := range g.Joins() {
		ua, ub := relToUnit[j.LeftRel], relToUnit[j.RightRel]
		if ua == ub {
			continue // handled as a unit-internal ColFilter (or inside the view)
		}
		e := crossEdge{
			a: ua, b: ub,
			aCol: j.LeftRel + "." + j.LeftCol,
			bCol: j.RightRel + "." + j.RightCol,
		}
		if e.a > e.b {
			e.a, e.b, e.aCol, e.bCol = e.b, e.a, e.bCol, e.aCol
		}
		edges = append(edges, e)
	}

	// Cost everything through one resolver covering all units.
	seqAccesses := make([]*TableAccess, len(units))
	coster := &Coster{Rates: opt.Rates, WorkMemBytes: opt.WorkMemBytes}
	for i, u := range units {
		seqAccesses[i] = coster.SeqAccess(u.table, u.qualifier, sortedRels(u.rels), u.filters, u.colFilters)
	}
	coster.Stats = StatsResolver(seqAccesses)
	// Re-cost the seq accesses now that statistics resolve.
	for i, u := range units {
		seqAccesses[i] = coster.SeqAccess(u.table, u.qualifier, sortedRels(u.rels), u.filters, u.colFilters)
	}

	// Best single-unit access: cheapest of seq and any applicable index scan.
	bestAccess := make([]Node, len(units))
	for i, u := range units {
		best := Node(seqAccesses[i])
		for pi, f := range u.filters {
			if opt.AvoidIndexes {
				break
			}
			stored := seqAccesses[i].storedCol(f.Col)
			if u.table.Index(stored) == nil || f.Op == tuple.CmpNE {
				continue
			}
			lo, hi, ok := boundsFor(f.Op, u.table.Schema.Columns[u.table.Schema.Ordinal(stored)].Kind, f.Const)
			if !ok {
				continue
			}
			residual := make([]PredSpec, 0, len(u.filters)-1)
			residual = append(residual, u.filters[:pi]...)
			residual = append(residual, u.filters[pi+1:]...)
			cand := coster.IndexAccess(u.table, u.qualifier, sortedRels(u.rels), stored, f, lo, hi, residual, u.colFilters)
			if cand.Cost() < best.Cost() {
				best = cand
			}
		}
		bestAccess[i] = best
	}

	joined, err := joinSearch(coster, units, bestAccess, seqAccesses, edges, opt.AvoidIndexes)
	if err != nil {
		return nil, err
	}
	return coster.Project(joined, q.Projections)
}

// makeUnits collapses covered relations into view units and leaves the rest
// as base units, attaching residual selections and unit-internal join edges.
func makeUnits(cat *catalog.Catalog, g *qgraph.Graph, cover []*catalog.MatView) ([]unit, error) {
	covered := make(map[string]*catalog.MatView)
	for _, v := range cover {
		for _, r := range v.Graph.Relations() {
			covered[r] = v
		}
	}
	var units []unit
	for _, v := range cover {
		u := unit{table: v.Table, qualifier: "", rels: make(map[string]bool)}
		for _, r := range v.Graph.Relations() {
			u.rels[r] = true
		}
		// Residual selections: on covered relations but not pre-applied.
		for _, s := range g.Selections() {
			if u.rels[s.Rel] && !v.Graph.HasSelection(s) {
				u.filters = append(u.filters, PredSpec{Col: s.Rel + "." + s.Col, Op: s.Op, Const: s.Const})
			}
		}
		// Residual internal join edges: both endpoints covered by this view
		// but the edge itself not materialized.
		for _, j := range g.Joins() {
			if u.rels[j.LeftRel] && u.rels[j.RightRel] && !v.Graph.HasJoin(j) {
				u.colFilters = append(u.colFilters, JoinEdgeSpec{
					LeftCol:  j.LeftRel + "." + j.LeftCol,
					RightCol: j.RightRel + "." + j.RightCol,
				})
			}
		}
		units = append(units, u)
	}
	for _, r := range g.Relations() {
		if covered[r] != nil {
			continue
		}
		t, err := cat.Table(r)
		if err != nil {
			return nil, err
		}
		u := unit{table: t, qualifier: r, rels: map[string]bool{r: true}}
		for _, s := range g.SelectionsOn(r) {
			u.filters = append(u.filters, PredSpec{Col: s.Rel + "." + s.Col, Op: s.Op, Const: s.Const})
		}
		units = append(units, u)
	}
	return units, nil
}

// joinSearch runs subset dynamic programming over units connected by edges,
// then folds disconnected components with cross joins.
func joinSearch(coster *Coster, units []unit, bestAccess []Node, seqAccesses []*TableAccess, edges []crossEdge, avoidIndexNL bool) (Node, error) {
	n := len(units)
	if n == 1 {
		return bestAccess[0], nil
	}
	full := (1 << n) - 1
	best := make([]Node, full+1)
	for i := 0; i < n; i++ {
		best[1<<i] = bestAccess[i]
	}

	edgesBetween := func(a, b int) []crossEdge {
		var out []crossEdge
		for _, e := range edges {
			if (a>>e.a)&1 == 1 && (b>>e.b)&1 == 1 {
				out = append(out, e)
			} else if (b>>e.a)&1 == 1 && (a>>e.b)&1 == 1 {
				out = append(out, crossEdge{a: e.b, b: e.a, aCol: e.bCol, bCol: e.aCol})
			}
		}
		return out
	}

	for mask := 1; mask <= full; mask++ {
		if best[mask] != nil || popcount(mask) < 2 {
			continue
		}
		var cheapest Node
		// Enumerate proper subsets of mask.
		for sub := (mask - 1) & mask; sub > 0; sub = (sub - 1) & mask {
			rest := mask ^ sub
			if sub > rest {
				continue // each split considered once; orientation handled below
			}
			l, r := best[sub], best[rest]
			if l == nil || r == nil {
				continue
			}
			between := edgesBetween(sub, rest)
			if len(between) == 0 {
				continue
			}
			cands, err := joinCandidates(coster, l, r, sub, rest, between, units, seqAccesses, avoidIndexNL)
			if err != nil {
				return nil, err
			}
			for _, c := range cands {
				if cheapest == nil || c.Cost() < cheapest.Cost() {
					cheapest = c
				}
			}
		}
		best[mask] = cheapest // may stay nil for disconnected subsets
	}

	if best[full] != nil {
		return best[full], nil
	}
	// Disconnected graph: plan each connected component, then cross join.
	comps := components(n, edges)
	var parts []Node
	for _, mask := range comps {
		if best[mask] == nil {
			return nil, fmt.Errorf("plan: no plan for component %b", mask)
		}
		parts = append(parts, best[mask])
	}
	sort.Slice(parts, func(i, j int) bool { return parts[i].Rows() < parts[j].Rows() })
	node := parts[0]
	for _, p := range parts[1:] {
		var err error
		node, err = coster.Join(JoinCross, node, p, nil)
		if err != nil {
			return nil, err
		}
	}
	return node, nil
}

// joinCandidates generates physical joins for one split. l covers subset sub,
// r covers rest; between edges are oriented sub→rest.
func joinCandidates(coster *Coster, l, r Node, sub, rest int, between []crossEdge, units []unit, seqAccesses []*TableAccess, avoidIndexNL bool) ([]Node, error) {
	specs := make([]JoinEdgeSpec, len(between))
	for i, e := range between {
		specs[i] = JoinEdgeSpec{LeftCol: e.aCol, RightCol: e.bCol}
	}
	flipped := make([]JoinEdgeSpec, len(between))
	for i, e := range between {
		flipped[i] = JoinEdgeSpec{LeftCol: e.bCol, RightCol: e.aCol}
	}

	var out []Node
	// Hash join: build on the smaller estimated side.
	if l.Rows() <= r.Rows() {
		h, err := coster.Join(JoinHash, l, r, specs)
		if err != nil {
			return nil, err
		}
		out = append(out, h)
	} else {
		h, err := coster.Join(JoinHash, r, l, flipped)
		if err != nil {
			return nil, err
		}
		out = append(out, h)
	}

	// Index nested loops: possible when one side is a single unit whose
	// table has an index on its endpoint of some edge. Try both directions.
	tryIndexNL := func(outer Node, innerMask int, edgesOriented []JoinEdgeSpec) error {
		if avoidIndexNL || popcount(innerMask) != 1 {
			return nil
		}
		ui := trailingBit(innerMask)
		access := seqAccesses[ui]
		for k, e := range edgesOriented {
			stored := access.storedCol(e.RightCol)
			if access.Table.Index(stored) == nil {
				continue
			}
			ordered := append([]JoinEdgeSpec{e}, append(append([]JoinEdgeSpec(nil), edgesOriented[:k]...), edgesOriented[k+1:]...)...)
			nl, err := coster.Join(JoinIndexNL, outer, access, ordered)
			if err != nil {
				return err
			}
			out = append(out, nl)
		}
		return nil
	}
	if err := tryIndexNL(l, rest, specs); err != nil {
		return nil, err
	}
	if err := tryIndexNL(r, sub, flipped); err != nil {
		return nil, err
	}
	return out, nil
}

// boundsFor converts a driving predicate on a column of kind k into B+-tree
// bounds holding exactly the keys Value.Compare puts on its side: a float
// column compares numbers as floats and −0.0 equal to +0.0 (a zero covers
// both images); NaN and a float constant on an integer column get no range.
func boundsFor(op tuple.CmpOp, k tuple.Kind, c tuple.Value) (lo, hi btree.Bound, ok bool) {
	if k == tuple.KindFloat {
		c = tuple.NewFloat(c.AsFloat())
	}
	if c.Is(tuple.KindFloat) && (k != tuple.KindFloat || math.IsNaN(c.Float())) {
		return btree.Unbounded, btree.Unbounded, false
	}
	first := tuple.EncodeKeyOf(nil, k, c)
	last := first
	if c.Is(tuple.KindFloat) && c.Float() == 0 {
		first, last = tuple.EncodeKeyOf(nil, k, tuple.NewFloat(math.Copysign(0, -1))), tuple.EncodeKeyOf(nil, k, tuple.NewFloat(0))
	}
	switch op {
	case tuple.CmpEQ:
		return btree.Exact(first), btree.Exact(last), true
	case tuple.CmpLT:
		return btree.Unbounded, btree.Bound{Key: first, Inclusive: false}, true
	case tuple.CmpLE:
		return btree.Unbounded, btree.Bound{Key: last, Inclusive: true}, true
	case tuple.CmpGT:
		return btree.Bound{Key: last, Inclusive: false}, btree.Unbounded, true
	case tuple.CmpGE:
		return btree.Bound{Key: first, Inclusive: true}, btree.Unbounded, true
	default:
		return btree.Unbounded, btree.Unbounded, false
	}
}

func sortedRels(rels map[string]bool) []string {
	out := make([]string, 0, len(rels))
	for r := range rels {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

func popcount(x int) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

func trailingBit(x int) int {
	return bits.TrailingZeros(uint(x))
}

// components returns one bitmask per connected component of the units.
func components(n int, edges []crossEdge) []int {
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	for _, e := range edges {
		parent[find(e.a)] = find(e.b)
	}
	masks := make(map[int]int)
	for i := 0; i < n; i++ {
		masks[find(i)] |= 1 << i
	}
	keys := make([]int, 0, len(masks))
	for k := range masks {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	out := make([]int, len(keys))
	for i, k := range keys {
		out[i] = masks[k]
	}
	return out
}
