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
	"specdb/internal/stats"
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
// a greedy disjoint packing), prices each cover with dynamic-programming join
// ordering and access-path selection, and returns the overall cheapest plan
// topped with the query's projection.
//
// The search prices candidates as numbers over unit ordinals and subset
// bitmasks; only the plan it returns is built as nodes (DESIGN.md §15, "What
// planning allocates"), and their schemas only when first read.
func Optimize(cat *catalog.Catalog, q *Query, opt Options) (Node, error) {
	var best *search
	for _, cover := range enumerateCovers(cat, q.Graph, opt.UseViews, opt.AvoidViews) {
		s, err := searchCover(cat, q, cover, opt)
		if err != nil {
			return nil, err
		}
		if best == nil || s.cost < best.cost {
			best = s
		}
	}
	if best == nil {
		return nil, fmt.Errorf("plan: no plan produced")
	}
	return best.plan(), nil
}

// baseOnly is the one cover of a query no view rewrites: base relations only.
var baseOnly = [][]*catalog.MatView{nil}

// enumerateCovers yields sets of disjoint matching views to consider. The
// empty cover (base relations only) is always included unless forced views
// exist, in which case every cover must include the greedy-disjoint forced
// set (query-rewriting semantics).
func enumerateCovers(cat *catalog.Catalog, g *qgraph.Graph, useViews, avoidViews bool) [][]*catalog.MatView {
	if avoidViews {
		// Degraded replan: base relations only, forced or not.
		return baseOnly
	}
	matching := cat.MatchingViews(g)
	if len(matching) == 0 {
		return baseOnly
	}
	var forced, optional []*catalog.MatView
	for _, v := range matching {
		if v.Forced {
			forced = append(forced, v)
		} else if useViews {
			optional = append(optional, v)
		}
	}
	base := greedyDisjoint(forced, nil)

	var covers [][]*catalog.MatView
	add := func(c []*catalog.MatView) {
		for _, seen := range covers {
			if sameViews(seen, c) {
				return
			}
		}
		covers = append(covers, c)
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

// sameViews reports whether two covers hold the same views, in any order.
func sameViews(a, b []*catalog.MatView) bool {
	if len(a) != len(b) {
		return false
	}
	for _, v := range a {
		found := false
		for _, w := range b {
			found = found || v == w
		}
		if !found {
			return false
		}
	}
	return true
}

// greedyDisjoint packs views with disjoint relation sets, preferring larger
// (more edges, then more relations) views; seed views are taken first and
// always kept.
func greedyDisjoint(views []*catalog.MatView, seed []*catalog.MatView) []*catalog.MatView {
	if len(views) == 0 {
		return seed // covers are never written to
	}
	sorted := views
	if len(views) > 1 {
		sorted = append([]*catalog.MatView(nil), views...)
		sort.Slice(sorted, func(i, j int) bool {
			gi, gj := sorted[i].Graph, sorted[j].Graph
			si := gi.NumJoins()*10 + gi.NumSelections() + gi.NumRelations()*5
			sj := gj.NumJoins()*10 + gj.NumSelections() + gj.NumRelations()*5
			if si != sj {
				return si > sj
			}
			return sorted[i].Name < sorted[j].Name
		})
	}
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

// est is what the search keeps of a sub-plan: its estimated output rows, its
// cumulative cost, and the estimated encoded width of its rows, which spill
// costing multiplies.
type est struct {
	rows  float64
	cost  sim.Duration
	width int
}

// unit is one leaf of the join search: a base relation or a view collapsing
// several relations.
type unit struct {
	table      *catalog.Table
	view       *catalog.MatView // nil for a base relation
	qualifier  string           // the relation's name; "" for a view
	filters    []PredSpec
	colFilters []JoinEdgeSpec
	seq        est // the sequential scan with every filter
	access     est // the cheapest single-unit access
	drive      int // the filter an index access is driven by; −1 for seq
}

// covers reports whether the unit holds relation rel.
func (u *unit) covers(rel string) bool {
	if u.view != nil {
		return u.view.Graph.HasRelation(rel)
	}
	return u.qualifier == rel
}

// stored translates a qualified column name to the unit table's stored name.
func (u *unit) stored(qualified string) string { return storedName(u.qualifier, qualified) }

// crossEdge is a join edge between two units, as qualified column names,
// with its selectivity.
type crossEdge struct {
	a, b       int // unit indexes, a < b
	aCol, bCol string
	sel        float64
}

// choice is the cheapest plan the search found for one subset of the units:
// its estimates, and how to build it. A join's sides are unit subsets; an
// index nested-loop join's right side is one unit, probed through the index
// on its end of the drive-th edge between the sides.
type choice struct {
	est
	ok          bool
	method      JoinMethod
	left, right int
	drive       int
}

// search prices one cover's plans and keeps, per subset of its units, the
// cheapest. It holds no state beyond one Optimize call, so concurrent
// statements plan apart.
type search struct {
	q     *Query
	opt   Options
	units []unit
	edges []crossEdge
	best  []choice // by unit subset
	// crossParts, for a graph whose units fall apart, are the components in
	// the order the plan cross-joins them.
	crossParts []int
	cost       sim.Duration // the projected plan's
}

// searchCover prices the query for one choice of views.
func searchCover(cat *catalog.Catalog, q *Query, cover []*catalog.MatView, opt Options) (*search, error) {
	s := &search{q: q, opt: opt}
	if err := s.makeUnits(cat, cover); err != nil {
		return nil, err
	}
	if len(s.units) > maxDPUnits {
		return nil, fmt.Errorf("plan: %d join units exceed the optimizer limit of %d", len(s.units), maxDPUnits)
	}
	s.makeEdges()
	for i := range s.units {
		s.priceAccess(i)
	}
	root, err := s.joinSearch()
	if err != nil {
		return nil, err
	}
	for _, name := range q.Projections {
		if !s.produces(name) {
			return nil, fmt.Errorf("plan: projection column %q not produced by plan (schema %v)", name, s.join().Schema())
		}
	}
	s.cost = root.cost + sim.Duration(root.rows)*opt.Rates.Tuple
	return s, nil
}

// makeUnits collapses covered relations into view units and leaves the rest
// as base units, attaching residual selections and unit-internal join edges.
func (s *search) makeUnits(cat *catalog.Catalog, cover []*catalog.MatView) error {
	g := s.q.Graph
	covered := func(rel string) bool {
		for _, v := range cover {
			if v.Graph.HasRelation(rel) {
				return true
			}
		}
		return false
	}
	base := 0
	for _, r := range g.Relations() {
		if !covered(r) {
			base++
		}
	}
	s.units = make([]unit, 0, len(cover)+base)
	for _, v := range cover {
		u := unit{table: v.Table, view: v}
		// Residual selections: on covered relations but not pre-applied.
		for _, sel := range g.Selections() {
			if v.Graph.HasRelation(sel.Rel) && !v.Graph.HasSelection(sel) {
				u.filters = append(u.filters, PredSpec{Col: columnName(v.Table, sel.Rel, sel.Col), Op: sel.Op, Const: sel.Const})
			}
		}
		// Residual internal join edges: both endpoints covered by this view
		// but the edge itself not materialized.
		for _, j := range g.Joins() {
			if v.Graph.HasRelation(j.LeftRel) && v.Graph.HasRelation(j.RightRel) && !v.Graph.HasJoin(j) {
				u.colFilters = append(u.colFilters, JoinEdgeSpec{
					LeftCol:  columnName(v.Table, j.LeftRel, j.LeftCol),
					RightCol: columnName(v.Table, j.RightRel, j.RightCol),
				})
			}
		}
		s.units = append(s.units, u)
	}
	for _, r := range g.Relations() {
		if covered(r) {
			continue
		}
		t, err := cat.Table(r)
		if err != nil {
			return err
		}
		u := unit{table: t, qualifier: r}
		for _, sel := range g.Selections() {
			if sel.Rel == r {
				u.filters = append(u.filters, PredSpec{Col: columnName(t, sel.Rel, sel.Col), Op: sel.Op, Const: sel.Const})
			}
		}
		s.units = append(s.units, u)
	}
	return nil
}

// columnName is rel.col as a plan names it, the string table t already holds
// when it has the column: t is rel's own table, whose Qualified schema names
// it so, or a view, which stores it so.
func columnName(t *catalog.Table, rel, col string) string {
	if t.Name == rel {
		if ord := t.Schema.Ordinal(col); ord >= 0 {
			return t.Qualified().Columns[ord].Name
		}
	} else if ord := t.Schema.Ordinal(rel + "." + col); ord >= 0 {
		return t.Schema.Columns[ord].Name
	}
	return rel + "." + col
}

// unitOf is the index of the unit holding relation rel.
func (s *search) unitOf(rel string) int {
	for i := range s.units {
		if s.units[i].covers(rel) {
			return i
		}
	}
	return -1
}

// makeEdges lists the query's join edges between units, in the graph's edge
// order, each with its selectivity.
func (s *search) makeEdges() {
	for _, j := range s.q.Graph.Joins() {
		ua, ub := s.unitOf(j.LeftRel), s.unitOf(j.RightRel)
		if ua == ub {
			continue // handled as a unit-internal ColFilter (or inside the view)
		}
		e := crossEdge{
			a: ua, b: ub,
			aCol: columnName(s.units[ua].table, j.LeftRel, j.LeftCol),
			bCol: columnName(s.units[ub].table, j.RightRel, j.RightCol),
		}
		if e.a > e.b {
			e.a, e.b, e.aCol, e.bCol = e.b, e.a, e.bCol, e.aCol
		}
		e.sel = s.edgeSelectivity(e.a, e.aCol, e.b, e.bCol)
		if s.edges == nil {
			s.edges = make([]crossEdge, 0, s.q.Graph.NumJoins())
		}
		s.edges = append(s.edges, e)
	}
}

// predSelectivity estimates one of unit ui's residual predicates from the
// statistics of the table providing its column.
func (s *search) predSelectivity(ui int, p PredSpec) float64 {
	u := &s.units[ui]
	return u.table.ColumnStats(u.stored(p.Col)).EstimateSelectivity(p.Op, p.Const)
}

// edgeSelectivity estimates an equi-join edge between a column of unit a and
// one of unit b (the same unit for a view's residual edge).
func (s *search) edgeSelectivity(a int, aCol string, b int, bCol string) float64 {
	ua, ub := &s.units[a], &s.units[b]
	return stats.EstimateJoinSelectivity(ua.table.ColumnStats(ua.stored(aCol)), ub.table.ColumnStats(ub.stored(bCol)))
}

// priceAccess prices unit ui's sequential scan and every index scan one of
// its filters can drive, and keeps the cheapest.
func (s *search) priceAccess(ui int) {
	u := &s.units[ui]
	u.seq = s.seqEstimate(ui)
	u.access, u.drive = u.seq, -1
	if s.opt.AvoidIndexes {
		return
	}
	for pi, f := range u.filters {
		stored := u.stored(f.Col)
		if u.table.Index(stored) == nil || f.Op == tuple.CmpNE {
			continue
		}
		if !indexable(f.Op, u.table.Schema.Columns[u.table.Schema.Ordinal(stored)].Kind, f.Const) {
			continue
		}
		if cand := s.indexEstimate(ui, pi, stored); cand.cost < u.access.cost {
			u.access, u.drive = cand, pi
		}
	}
}

// seqEstimate prices a sequential scan of unit ui with its residual filters.
func (s *search) seqEstimate(ui int) est {
	u := &s.units[ui]
	rates := s.opt.Rates
	n := float64(u.table.RowCount())
	rows := n
	for _, f := range u.filters {
		rows *= s.predSelectivity(ui, f)
	}
	for _, e := range u.colFilters {
		rows *= s.edgeSelectivity(ui, e.LeftCol, ui, e.RightCol)
	}
	cost := sim.Duration(u.table.NumPages()) * rates.PageRead
	cost += sim.Duration(n) * rates.Tuple // scan emits every row
	if len(u.filters) > 0 {
		cost += sim.Duration(n) * rates.Tuple // filter touches every row
	}
	if len(u.colFilters) > 0 {
		cost += sim.Duration(n) * rates.Tuple
	}
	return est{rows: rows, cost: cost, width: rowWidth(u.table.Schema)}
}

// indexEstimate prices an index scan of unit ui on stored column indexCol,
// driven by filter pi, with the remaining filters residual.
func (s *search) indexEstimate(ui, pi int, indexCol string) est {
	u := &s.units[ui]
	rates := s.opt.Rates
	n := float64(u.table.RowCount())
	drivingSel := s.predSelectivity(ui, u.filters[pi])
	match := n * drivingSel
	rows := match
	for i, f := range u.filters {
		if i != pi {
			rows *= s.predSelectivity(ui, f)
		}
	}
	for _, e := range u.colFilters {
		rows *= s.edgeSelectivity(ui, e.LeftCol, ui, e.RightCol)
	}

	idx := u.table.Index(indexCol)
	height := 2.0
	leafPages := 1.0
	if idx != nil {
		height = float64(idx.Tree.Height())
		leafPages = float64(idx.Tree.NumPages()) * drivingSel
	}
	// Unclustered fetches: one page read per matching row, capped at the
	// table size: exec.IndexScan sorts its RIDs into heap order and so reads
	// each table page at most once, whatever the pool holds.
	fetchPages := match
	if cap := float64(u.table.NumPages()); fetchPages > cap {
		fetchPages = cap
	}
	io := height + leafPages + fetchPages
	cost := sim.Duration(io) * rates.PageRead
	cost += sim.Duration(match) * rates.Tuple
	if len(u.filters) > 1 {
		cost += sim.Duration(match) * rates.Tuple
	}
	if len(u.colFilters) > 0 {
		cost += sim.Duration(match) * rates.Tuple
	}
	return est{rows: rows, cost: cost, width: rowWidth(u.table.Schema)}
}

// between appends to out the indexes of the edges between unit subsets a and
// b, in edge order.
func (s *search) between(a, b int, out []int) []int {
	for i, e := range s.edges {
		if (a>>e.a)&1 == 1 && (b>>e.b)&1 == 1 || (b>>e.a)&1 == 1 && (a>>e.b)&1 == 1 {
			out = append(out, i)
		}
	}
	return out
}

// bySelectivity orders edges most selective first, stably: a hash join's
// first edge drives its table and the rest run as a residual filter over the
// primary matches, so the most selective edge must go first or the
// intermediate blows up (e.g. joining two fact tables through a tiny shared
// dimension key).
func (s *search) bySelectivity(edges []int) {
	for i := 1; i < len(edges); i++ {
		for j := i; j > 0 && s.edges[edges[j]].sel < s.edges[edges[j-1]].sel; j-- {
			edges[j], edges[j-1] = edges[j-1], edges[j]
		}
	}
}

// joinEstimate prices a join of sub-plans l and r over edges (nil for a
// cross join), edges[0] driving. For JoinIndexNL, r is the sequential scan
// of the inner unit, whose index on its end of edges[0] has the given
// height.
func (s *search) joinEstimate(method JoinMethod, l, r est, edges []int, indexHeight int, innerRows float64) est {
	rates := s.opt.Rates
	// primaryMatches is the stream the physical join emits before residual
	// edges filter it; out is after all edges.
	primaryMatches := l.rows * r.rows
	if len(edges) > 0 {
		primaryMatches *= s.edges[edges[0]].sel
	}
	out := primaryMatches
	for _, e := range edges[min(1, len(edges)):] {
		out *= s.edges[e].sel
	}
	j := est{rows: out, width: l.width + r.width}
	switch method {
	case JoinHash:
		cost := l.cost + r.cost
		cost += sim.Duration(l.rows+r.rows) * rates.Tuple  // build + probe
		cost += sim.Duration(primaryMatches) * rates.Tuple // emit primary matches
		if len(edges) > 1 {
			cost += sim.Duration(primaryMatches) * rates.Tuple // residual filter pass
		}
		if s.opt.WorkMemBytes > 0 {
			buildBytes := l.rows * float64(l.width)
			if buildBytes > float64(s.opt.WorkMemBytes) {
				// GRACE spill: both sides written and re-read.
				spillPages := (buildBytes + r.rows*float64(r.width)) / 8192
				cost += sim.Duration(spillPages) * (rates.PageWrite + rates.PageRead)
			}
		}
		j.cost = cost
	case JoinIndexNL:
		perProbeMatches := innerRows * s.edges[edges[0]].sel
		probeIO := float64(indexHeight) + perProbeMatches // tree descent + row fetches
		cost := l.cost
		cost += sim.Duration(l.rows*probeIO) * rates.PageRead
		cost += sim.Duration(l.rows*perProbeMatches) * rates.Tuple
		cost += sim.Duration(primaryMatches) * rates.Tuple
		if len(edges) > 1 {
			cost += sim.Duration(primaryMatches) * rates.Tuple
		}
		j.cost = cost
	case JoinCross:
		cost := l.cost + r.cost
		cost += sim.Duration(l.rows*r.rows) * rates.Tuple
		j.cost = cost
	}
	return j
}

// innerIndex is the index on unit inner's end of edge e, or nil.
func (s *search) innerIndex(inner, e int) *catalog.Index {
	u, edge := &s.units[inner], s.edges[e]
	col := edge.aCol
	if edge.b == inner {
		col = edge.bCol
	}
	return u.table.Index(u.stored(col))
}

// joinSearch runs subset dynamic programming over units connected by edges,
// then folds disconnected components with cross joins.
func (s *search) joinSearch() (est, error) {
	n := len(s.units)
	full := (1 << n) - 1
	s.best = make([]choice, full+1)
	for i := range s.units {
		s.best[1<<i] = choice{est: s.units[i].access, ok: true}
	}
	if n == 1 {
		return s.best[1].est, nil
	}

	for mask := 1; mask <= full; mask++ {
		if s.best[mask].ok || bits.OnesCount(uint(mask)) < 2 {
			continue
		}
		var cheapest choice
		consider := func(c choice) {
			if !cheapest.ok || c.cost < cheapest.cost {
				cheapest = c
			}
		}
		// Enumerate proper subsets of mask.
		for sub := (mask - 1) & mask; sub > 0; sub = (sub - 1) & mask {
			rest := mask ^ sub
			if sub > rest {
				continue // each split considered once; orientation handled below
			}
			l, r := s.best[sub], s.best[rest]
			if !l.ok || !r.ok {
				continue
			}
			var buf [8]int
			between := s.between(sub, rest, buf[:0])
			if len(between) == 0 {
				continue
			}
			// Hash join: build on the smaller estimated side.
			var sorted [8]int
			order := append(sorted[:0], between...)
			s.bySelectivity(order)
			if l.rows <= r.rows {
				consider(choice{est: s.joinEstimate(JoinHash, l.est, r.est, order, 0, 0), ok: true, method: JoinHash, left: sub, right: rest})
			} else {
				consider(choice{est: s.joinEstimate(JoinHash, r.est, l.est, order, 0, 0), ok: true, method: JoinHash, left: rest, right: sub})
			}
			// Index nested loops: possible when one side is a single unit
			// whose table has an index on its endpoint of some edge. Try
			// both directions.
			if s.opt.AvoidIndexes {
				continue
			}
			for _, side := range [2][2]int{{sub, rest}, {rest, sub}} {
				outer, inner := side[0], side[1]
				if bits.OnesCount(uint(inner)) != 1 {
					continue
				}
				ui := bits.TrailingZeros(uint(inner))
				for k, e := range between {
					idx := s.innerIndex(ui, e)
					if idx == nil {
						continue
					}
					ordered := append(append(append(sorted[:0], e), between[:k]...), between[k+1:]...)
					j := s.joinEstimate(JoinIndexNL, s.best[outer].est, s.units[ui].seq, ordered,
						idx.Tree.Height(), float64(s.units[ui].table.RowCount()))
					consider(choice{est: j, ok: true, method: JoinIndexNL, left: outer, right: inner, drive: k})
				}
			}
		}
		s.best[mask] = cheapest // may stay unset for disconnected subsets
	}

	if s.best[full].ok {
		return s.best[full].est, nil
	}
	// Disconnected graph: plan each connected component, then cross join.
	parts := components(n, s.edges)
	for _, mask := range parts {
		if !s.best[mask].ok {
			return est{}, fmt.Errorf("plan: no plan for component %b", mask)
		}
	}
	sort.Slice(parts, func(i, j int) bool { return s.best[parts[i]].rows < s.best[parts[j]].rows })
	s.crossParts = parts
	root := s.best[parts[0]].est
	for _, p := range parts[1:] {
		root = s.joinEstimate(JoinCross, root, s.best[p].est, nil, 0, 0)
	}
	return root, nil
}

// produces reports whether the plan outputs qualified column name.
func (s *search) produces(name string) bool {
	for i := range s.units {
		u := &s.units[i]
		if u.view != nil {
			if u.table.Schema.Ordinal(name) >= 0 {
				return true
			}
		} else if q := u.qualifier; len(name) > len(q) && name[len(q)] == '.' && name[:len(q)] == q {
			return u.table.Schema.Ordinal(name[len(q)+1:]) >= 0
		}
	}
	return false
}

// plan builds the nodes of the cheapest plan found, topped with the query's
// projection.
func (s *search) plan() Node {
	return &ProjectNode{Child: s.join(), Cols: s.q.Projections, cost: s.cost}
}

// join builds the plan below the projection.
func (s *search) join() Node {
	if s.crossParts == nil {
		return s.node(len(s.best) - 1)
	}
	node := s.node(s.crossParts[0])
	for _, p := range s.crossParts[1:] {
		right := s.node(p)
		est := s.joinEstimate(JoinCross, estOf(node), estOf(right), nil, 0, 0)
		node = &JoinNode{Method: JoinCross, Left: node, Right: right, widthBytes: est.width, rows: est.rows, cost: est.cost}
	}
	return node
}

func estOf(n Node) est { return est{rows: n.Rows(), cost: n.Cost(), width: n.width()} }

// node builds the cheapest plan of a unit subset.
func (s *search) node(mask int) Node {
	if bits.OnesCount(uint(mask)) == 1 {
		return s.accessNode(bits.TrailingZeros(uint(mask)))
	}
	c := s.best[mask]
	var buf [8]int
	edges := s.between(c.left, c.right, buf[:0])
	j := &JoinNode{Method: c.method, widthBytes: c.width, rows: c.rows, cost: c.cost, Left: s.node(c.left)}
	switch c.method {
	case JoinHash:
		s.bySelectivity(edges)
		j.Right = s.node(c.right)
	case JoinIndexNL:
		drive := edges[c.drive]
		copy(edges[1:c.drive+1], edges[:c.drive])
		edges[0] = drive
		j.Right = s.seqNode(bits.TrailingZeros(uint(c.right)))
	}
	j.Edges = make([]JoinEdgeSpec, len(edges))
	for i, e := range edges {
		edge := s.edges[e]
		if (c.left>>edge.a)&1 == 1 {
			j.Edges[i] = JoinEdgeSpec{LeftCol: edge.aCol, RightCol: edge.bCol}
		} else {
			j.Edges[i] = JoinEdgeSpec{LeftCol: edge.bCol, RightCol: edge.aCol}
		}
	}
	return j
}

// seqNode builds unit ui's sequential scan.
func (s *search) seqNode(ui int) *TableAccess {
	u := &s.units[ui]
	return &TableAccess{
		Table:      u.table,
		Qualifier:  u.qualifier,
		Method:     AccessSeq,
		Filters:    u.filters,
		ColFilters: u.colFilters,
		widthBytes: u.seq.width,
		rows:       u.seq.rows,
		cost:       u.seq.cost,
	}
}

// accessNode builds unit ui's cheapest access.
func (s *search) accessNode(ui int) *TableAccess {
	u := &s.units[ui]
	if u.drive < 0 {
		return s.seqNode(ui)
	}
	f := u.filters[u.drive]
	stored := u.stored(f.Col)
	lo, hi := boundsFor(f.Op, u.table.Schema.Columns[u.table.Schema.Ordinal(stored)].Kind, f.Const)
	residual := make([]PredSpec, 0, len(u.filters)-1)
	residual = append(residual, u.filters[:u.drive]...)
	residual = append(residual, u.filters[u.drive+1:]...)
	return &TableAccess{
		Table:      u.table,
		Qualifier:  u.qualifier,
		Method:     AccessIndex,
		IndexCol:   stored,
		Lo:         lo,
		Hi:         hi,
		Filters:    residual,
		ColFilters: u.colFilters,
		widthBytes: u.access.width,
		rows:       u.access.rows,
		cost:       u.access.cost,
	}
}

// indexable reports whether a driving predicate on a column of kind k can
// bound a B+-tree scan: NaN and a float constant on an integer column get no
// range (see boundsFor).
func indexable(op tuple.CmpOp, k tuple.Kind, c tuple.Value) bool {
	if k == tuple.KindFloat {
		c = tuple.NewFloat(c.AsFloat())
	}
	if c.Is(tuple.KindFloat) && (k != tuple.KindFloat || math.IsNaN(c.Float())) {
		return false
	}
	switch op {
	case tuple.CmpEQ, tuple.CmpLT, tuple.CmpLE, tuple.CmpGT, tuple.CmpGE:
		return true
	}
	return false
}

// boundsFor converts an indexable driving predicate on a column of kind k
// into B+-tree bounds holding exactly the keys Value.Compare puts on its
// side: a float column compares numbers as floats and −0.0 equal to +0.0 (a
// zero covers both images).
func boundsFor(op tuple.CmpOp, k tuple.Kind, c tuple.Value) (lo, hi btree.Bound) {
	if k == tuple.KindFloat {
		c = tuple.NewFloat(c.AsFloat())
	}
	first := tuple.EncodeKeyOf(nil, k, c)
	last := first
	if c.Is(tuple.KindFloat) && c.Float() == 0 {
		first, last = tuple.EncodeKeyOf(nil, k, tuple.NewFloat(math.Copysign(0, -1))), tuple.EncodeKeyOf(nil, k, tuple.NewFloat(0))
	}
	switch op {
	case tuple.CmpEQ:
		return btree.Exact(first), btree.Exact(last)
	case tuple.CmpLT:
		return btree.Unbounded, btree.Bound{Key: first, Inclusive: false}
	case tuple.CmpLE:
		return btree.Unbounded, btree.Bound{Key: last, Inclusive: true}
	case tuple.CmpGT:
		return btree.Bound{Key: last, Inclusive: false}, btree.Unbounded
	default: // tuple.CmpGE
		return btree.Bound{Key: first, Inclusive: true}, btree.Unbounded
	}
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
