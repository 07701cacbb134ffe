package harness

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"specdb/internal/core"
	"specdb/internal/engine"
	"specdb/internal/exec"
	"specdb/internal/plan"
	"specdb/internal/qgraph"
	"specdb/internal/sim"
	"specdb/internal/storage"
	"specdb/internal/tpch"
	"specdb/internal/trace"
	"specdb/internal/tuple"
)

// The oracle: an evaluator of conjunctive SPJ queries that shares nothing with
// the engine above the heap file and the row codec — no optimizer, no views,
// no indexes, no operators, no arena, no borrowed rows. It reads every stored
// record of every relation of the query, decoded with tuple.DecodeRowInto into
// a row of its own, and runs one nested loop per relation; every selection and
// every join edge is a plain predicate on the concatenated row, tested at the
// first depth where the columns it names are bound; the projection is applied
// last. The one thing it does for speed is take the relations in an order
// where each is joined to one before it, as far as the graph has such an
// order — customer × lineitem before orders is 36 million rows even on the
// reduced load it only ever runs on.

// oraclePred is column op constant, or column op column when other ≥ 0, over
// the concatenated row; depth is the loop at which its last column is bound.
type oraclePred struct {
	depth int
	col   int
	op    tuple.CmpOp
	other int
	c     tuple.Value
}

// oracleMemo holds the oracle's answers for the life of the test binary,
// keyed by the query and, per relation it reads, the relation's schema and a
// checksum of its stored records: the configurations of
// TestOracleAgreesWithEngine load the same data and ask the same queries, and
// an engine whose heaps differ from the one an answer was computed on misses.
var (
	oracleMu   sync.Mutex
	oracleMemo = map[string][]tuple.Row{}
	heapSeed   = maphash.MakeSeed()
)

// oracleEval is the oracle's answer to q on eng's base relations.
func oracleEval(t testing.TB, eng *engine.Engine, q *plan.Query) []tuple.Row {
	t.Helper()
	key := fmt.Sprintf("%s|%q", q.Graph.Key(), q.Projections)
	for _, rel := range q.Graph.Relations() {
		tb, err := eng.Catalog.Table(rel)
		if err != nil {
			t.Fatal(err)
		}
		var h maphash.Hash
		h.SetSeed(heapSeed)
		err = tb.Heap.Scan(func(_ storage.RID, rec []byte) error {
			h.Write(binary.AppendUvarint(nil, uint64(len(rec))))
			h.Write(rec)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		key += fmt.Sprintf("|%s%v:%x", rel, tb.Schema.Columns, h.Sum64())
	}
	oracleMu.Lock()
	defer oracleMu.Unlock()
	if rows, ok := oracleMemo[key]; ok {
		return rows
	}
	rows := oracleNestedLoops(t, eng, q)
	oracleMemo[key] = rows
	return rows
}

// oracleNestedLoops evaluates q by the nested loops described above.
func oracleNestedLoops(t testing.TB, eng *engine.Engine, q *plan.Query) []tuple.Row {
	t.Helper()
	rels := q.Graph.Relations()
	for i := 1; i < len(rels); i++ {
		for k := i; k < len(rels); k++ {
			joined := false
			for _, j := range q.Graph.JoinsOn(rels[k]) {
				other, _ := j.Other(rels[k])
				joined = joined || slices.Contains(rels[:i], other)
			}
			if joined {
				rels[i], rels[k] = rels[k], rels[i]
				break
			}
		}
	}
	ordinal := map[string]int{} // "rel.col" → position in the concatenated row
	depthOf := map[string]int{}
	stored := make([][]tuple.Row, len(rels))
	for d, rel := range rels {
		tb, err := eng.Catalog.Table(rel)
		if err != nil {
			t.Fatal(err)
		}
		depthOf[rel] = d
		for _, c := range tb.Schema.Columns {
			ordinal[rel+"."+c.Name] = len(ordinal)
		}
		err = tb.Heap.Scan(func(_ storage.RID, rec []byte) error {
			row := make(tuple.Row, tb.Schema.Len())
			if _, err := tuple.DecodeRowInto(row, rec, tb.Schema); err != nil {
				return err
			}
			stored[d] = append(stored[d], row)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	column := func(name string) int {
		ord, ok := ordinal[name]
		if !ok {
			t.Fatalf("oracle: query names %s, which no relation of it has", name)
		}
		return ord
	}
	var preds []oraclePred
	for _, s := range q.Graph.Selections() {
		preds = append(preds, oraclePred{depth: depthOf[s.Rel], col: column(s.Rel + "." + s.Col), op: s.Op, other: -1, c: s.Const})
	}
	for _, j := range q.Graph.Joins() {
		preds = append(preds, oraclePred{
			depth: max(depthOf[j.LeftRel], depthOf[j.RightRel]),
			col:   column(j.LeftRel + "." + j.LeftCol), op: tuple.CmpEQ, other: column(j.RightRel + "." + j.RightCol),
		})
	}
	project := make([]int, len(q.Projections))
	for i, p := range q.Projections {
		project[i] = column(p)
	}

	var out []tuple.Row
	row := make(tuple.Row, len(ordinal))
	var loop func(depth, off int)
	loop = func(depth, off int) {
		if depth == len(rels) {
			res := make(tuple.Row, len(project))
			for i, ord := range project {
				res[i] = row[ord]
			}
			out = append(out, res)
			return
		}
	next:
		for _, r := range stored[depth] {
			copy(row[off:], r)
			for _, p := range preds {
				if p.depth != depth {
					continue
				}
				right := p.c
				if p.other >= 0 {
					right = row[p.other]
				}
				if !p.op.Eval(row[p.col], right) {
					continue next
				}
			}
			loop(depth+1, off+len(r))
		}
	}
	loop(0, 0)
	return out
}

// multiset counts rows by an exact rendering: the kind, and the value as
// Value.String prints it (floats round-trip).
func multiset(rows []tuple.Row) map[string]int {
	m := make(map[string]int, len(rows))
	var b strings.Builder
	for _, r := range rows {
		b.Reset()
		for _, v := range r {
			fmt.Fprintf(&b, "%d:%s|", v.Kind(), v)
		}
		m[b.String()]++
	}
	return m
}

// sameMultiset describes the first difference between two answers, or "".
func sameMultiset(got, want []tuple.Row) string {
	g, w := multiset(got), multiset(want)
	var keys []string
	for k := range w {
		keys = append(keys, k)
	}
	for k := range g {
		if _, ok := w[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		if g[k] != w[k] {
			return fmt.Sprintf("%d rows, oracle %d; row %s ×%d, oracle ×%d", len(got), len(want), k, g[k], w[k])
		}
	}
	return ""
}

// oracleScale is the reduced load: 4 suppliers, 60 parts, 240 partsupps, 45
// customers, 450 orders, 1800 lineitems — a five-way nested loop over it stays
// in seconds.
var oracleScale = tpch.NewScale("oracle", 0.0003)

// oracleQueries is the matrix: the 124 finals of the reference corpus (seed
// 7, three users — what BENCH_spec.json and every benchmark workload replay),
// then every shape of multi-edge join the vocabulary's relations allow, then
// two joins on a string key. The
// foreign keys close one cycle, part – lineitem – supplier – partsupp, so a
// plan over it must join two sub-plans on two edges at once; partsupp ⋈
// lineitem on partkey AND suppkey is the same join without the dimension
// tables in between.
func oracleQueries(t *testing.T, eng *engine.Engine) (queries []*plan.Query, multiEdge int) {
	t.Helper()
	traces, err := trace.GenerateCorpus(tpch.Vocabulary(), 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	add := func(g *qgraph.Graph, projs []string) {
		q, err := plan.BindGraphProjections(eng.Catalog, g, projs)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, q)
	}
	for _, tr := range traces {
		finals, err := trace.ExtractQueries(tr)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range finals {
			add(f.Graph, f.Projs)
		}
	}
	if len(queries) != 124 {
		t.Fatalf("the reference corpus has %d finals, want 124", len(queries))
	}

	direct := []qgraph.Join{
		qgraph.NewJoin("partsupp", "ps_partkey", "lineitem", "l_partkey"),
		qgraph.NewJoin("partsupp", "ps_suppkey", "lineitem", "l_suppkey"),
	}
	selections := [][]qgraph.Selection{
		nil,
		{{Rel: "lineitem", Col: "l_quantity", Op: tuple.CmpLT, Const: tuple.NewInt(25)}},
		{{Rel: "partsupp", Col: "ps_supplycost", Op: tuple.CmpGE, Const: tuple.NewFloat(300)},
			{Rel: "lineitem", Col: "l_shipdate", Op: tuple.CmpGT, Const: tuple.NewDate(9000)}},
	}
	for _, shape := range []struct {
		rels   []string
		direct bool // partsupp joins lineitem on both keys directly
	}{
		{[]string{"partsupp", "lineitem"}, true},
		{[]string{"partsupp", "lineitem", "part"}, true},
		{[]string{"partsupp", "lineitem", "supplier"}, true},
		{[]string{"partsupp", "lineitem", "orders"}, true},
		{[]string{"part", "supplier", "partsupp", "lineitem"}, false},
		{[]string{"part", "supplier", "partsupp", "lineitem"}, true},
		{[]string{"part", "supplier", "partsupp", "lineitem", "orders"}, false},
		{[]string{"part", "supplier", "partsupp", "lineitem", "orders", "customer"}, false},
	} {
		for _, sels := range selections {
			g := qgraph.New()
			for _, r := range shape.rels {
				g.AddRelation(r)
			}
			for _, j := range tpch.JoinEdges() {
				if g.HasRelation(j.LeftRel) && g.HasRelation(j.RightRel) {
					g.AddJoin(j)
				}
			}
			if shape.direct {
				g.AddJoin(direct[0])
				g.AddJoin(direct[1])
			}
			for _, s := range sels {
				g.AddSelection(s)
			}
			add(g, nil)
			multiEdge++
		}
	}
	// No foreign key is a string, so the corpus never hashes one: join
	// customers and suppliers on their nation, which gates a probe scan on a
	// string key that aliases its record.
	for _, sels := range [][]qgraph.Selection{nil, {{Rel: "customer", Col: "c_custkey", Op: tuple.CmpLT, Const: tuple.NewInt(20)}}} {
		g := qgraph.New()
		g.AddJoin(qgraph.NewJoin("customer", "c_nation", "supplier", "s_nation"))
		for _, s := range sels {
			g.AddSelection(s)
		}
		add(g, nil)
	}
	return queries, multiEdge
}

// TestOracleAgreesWithEngine is the first slice of the independent oracle
// (ROADMAP item 1a): the engine's answer to every query of the matrix equals
// the oracle's as a multiset — through RunQuery on the default pool, through
// RunQuery on a 16-frame pool (a quarter of it is work memory, so the larger
// build sides spill and every page fetch recycles a frame), planned and run
// with one byte of work memory (every join spills), and through RunQuery
// after a forced materialization of orders ⋈ lineitem (every query containing
// it reads the view, its remaining edges as ColFilters inside the access).
//
// It holds the hash join's residual test in particular: with the test removed
// the two-edge joins return every match of their first edge, and with its
// build/probe ordinals swapped they compare the wrong columns; both were tried
// and both fail here.
//
// A fifth configuration, "recycled", holds the line between memory the joins
// give back to the slabs at Close and memory that leaves in an answer
// (DESIGN.md §15, "Slabs"): one engine runs the matrix twice, each round in
// its own seeded shuffled order, keeps every answer of both rounds, and
// compares them with the oracle only once the second round is done. An answer
// that pointed into a chunk handed out again would by then hold a later
// statement's values.
//
// Every configuration also holds the scans that test before they decode
// (DESIGN.md §15, "What a scan decodes"): each has plans whose probe scan
// takes its hash join's key test and plans whose scan fuses its selections.
// Reading the key from the neighbouring column, matching a string key by its
// hash alone, and testing a fused selection on the previous row were each
// tried, and each fails here.
//
// A sixth, "served" (oracleServed), holds instant GO: the corpus is replayed
// through speculators that predict whole finals, and every GO of the trained
// pass is compared with the oracle, including those the answer cache served
// without running a statement.
func TestOracleAgreesWithEngine(t *testing.T) {
	type config struct {
		name  string
		pages int
		run   func(eng *engine.Engine, q *plan.Query) ([]tuple.Row, plan.Node, error)
	}
	runQuery := func(eng *engine.Engine, q *plan.Query) ([]tuple.Row, plan.Node, error) {
		res, err := eng.RunQuery(q)
		if err != nil {
			return nil, nil, err
		}
		return res.Rows, res.Plan, nil
	}
	spillAll := func(eng *engine.Engine, q *plan.Query) ([]tuple.Row, plan.Node, error) {
		node, err := plan.Optimize(eng.Catalog, q, plan.Options{Rates: sim.DefaultRates(), WorkMemBytes: 1})
		if err != nil {
			return nil, nil, err
		}
		it, err := node.Build(&exec.Context{Meter: sim.NewMeter(), WorkMemBytes: 1})
		if err != nil {
			return nil, node, err
		}
		rows, err := exec.Collect(it)
		return rows, node, err
	}
	for _, cfg := range []config{
		{"default pool", 0, runQuery},
		{"16-frame pool", 16, runQuery},
		{"1-byte work memory", 0, spillAll},
		{"forced view", 0, runQuery},
		{"recycled", 0, runQuery},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			env := tinyEnv(t, EnvConfig{Scale: oracleScale, BufferPoolPages: cfg.pages})
			queries, multiEdge := oracleQueries(t, env.Eng)
			if cfg.name == "forced view" {
				sub := qgraph.JoinSubgraph(qgraph.New(), qgraph.NewJoin("orders", "o_orderkey", "lineitem", "l_orderkey"))
				if _, err := env.Eng.Materialize("oracle_view", sub, true); err != nil {
					t.Fatal(err)
				}
			}
			order := make([]int, len(queries)) // query index of each statement run
			for i := range order {
				order[i] = i
			}
			if cfg.name == "recycled" {
				rng := rand.New(rand.NewSource(27))
				rounds := make([]int, 0, 2*len(queries))
				for range 2 {
					rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
					rounds = append(rounds, order...)
				}
				order = rounds
			}
			type answer struct {
				rows []tuple.Row
				node plan.Node
			}
			answers := make([]answer, len(order))
			for k, i := range order {
				rows, node, err := cfg.run(env.Eng, queries[i])
				if err != nil {
					t.Fatalf("query %d (%s): %v", i, queries[i].Graph, err)
				}
				answers[k] = answer{rows, node}
			}
			wants := make([][]tuple.Row, len(queries))
			for i, q := range queries {
				wants[i] = oracleEval(t, env.Eng, q)
			}
			nonEmpty, residualJoins, viewReads, gatedProbes, fusedSelections := 0, 0, 0, 0, 0
			for k, i := range order {
				q, got, node, want := queries[i], answers[k].rows, answers[k].node, wants[i]
				if diff := sameMultiset(got, want); diff != "" {
					t.Errorf("query %d (%s) projecting %v, statement %d of %d:\n%s\n%s", i, q.Graph, q.Projections, k, len(order), diff, plan.Explain(node))
				}
				if len(want) > 0 {
					nonEmpty++
				}
				plan.Walk(node, func(n plan.Node) {
					switch n := n.(type) {
					case *plan.JoinNode:
						if n.Method == plan.JoinHash && len(n.Edges) > 1 {
							residualJoins++
						}
						if gatesProbe(n) {
							gatedProbes++
						}
					case *plan.TableAccess:
						if n.Table.Name == "oracle_view" {
							viewReads++
						}
						if fusesSelection(n) {
							fusedSelections++
						}
					}
				})
			}
			// The matrix must be able to see: answers with rows in them, hash
			// joins with residual edges, probe scans that take their join's
			// key test, scans with their selections fused, and the view where
			// one was forced.
			if nonEmpty < len(order)/2 {
				t.Errorf("only %d of %d answers have rows", nonEmpty, len(order))
			}
			if residualJoins < len(order)/len(queries)*multiEdge/2 {
				t.Errorf("only %d hash joins carried a residual edge (%d multi-edge queries)", residualJoins, multiEdge)
			}
			if gatedProbes == 0 || fusedSelections == 0 {
				t.Errorf("%d plans gate a probe scan and %d fuse a selection; want both above zero", gatedProbes, fusedSelections)
			}
			if cfg.name == "forced view" && viewReads == 0 {
				t.Error("no plan read the forced view")
			}
			if err := env.Eng.Pool.MisuseError(); err != nil {
				t.Error(err)
			}
		})
	}
	t.Run("served", oracleServed)
	t.Run("projected", func(t *testing.T) {
		oracleProjected(t, map[string]func(*engine.Engine, *plan.Query) ([]tuple.Row, plan.Node, error){
			"default pool":       runQuery,
			"1-byte work memory": spillAll,
		})
	})
}

// oracleProjected is TestOracleAgreesWithEngine's projected configuration
// (DESIGN.md §15, "What a query decodes and copies"): every query of the
// matrix again, under each single-column projection of its SELECT *, under
// its last and first columns in that order, and under its first column twice,
// each run by every runner. The oracle evaluates each graph once, whole, and
// projects its answer. A scan that leaves a column unwritten that its parent
// reads, a join that copies the wrong side's column, or a projection written
// from the wrong place of a join's match fails here on the first query whose
// projection reaches it.
func oracleProjected(t *testing.T, runners map[string]func(*engine.Engine, *plan.Query) ([]tuple.Row, plan.Node, error)) {
	env := tinyEnv(t, EnvConfig{Scale: oracleScale})
	queries, _ := oracleQueries(t, env.Eng)
	type projected struct {
		q    *plan.Query
		want []tuple.Row
	}
	var cases []projected
	for _, q := range queries {
		star, err := plan.BindGraph(env.Eng.Catalog, q.Graph)
		if err != nil {
			t.Fatal(err)
		}
		whole := oracleEval(t, env.Eng, star)
		cols := star.Projections
		ordsList := [][]int{{len(cols) - 1, 0}, {0, 0}}
		for i := range cols {
			ordsList = append(ordsList, []int{i})
		}
		for _, ords := range ordsList {
			pq := &plan.Query{Graph: q.Graph}
			for _, o := range ords {
				pq.Projections = append(pq.Projections, cols[o])
			}
			want := make([]tuple.Row, len(whole))
			for r, row := range whole {
				want[r] = make(tuple.Row, len(ords))
				for i, o := range ords {
					want[r][i] = row[o]
				}
			}
			cases = append(cases, projected{pq, want})
		}
	}
	for _, name := range []string{"default pool", "1-byte work memory"} {
		t.Run(name, func(t *testing.T) {
			nonEmpty := 0
			for _, c := range cases {
				got, node, err := runners[name](env.Eng, c.q)
				if err != nil {
					t.Fatalf("%s projecting %v: %v", c.q.Graph, c.q.Projections, err)
				}
				if diff := sameMultiset(got, c.want); diff != "" {
					t.Fatalf("%s projecting %v:\n%s\n%s", c.q.Graph, c.q.Projections, diff, plan.Explain(node))
				}
				if len(c.want) > 0 {
					nonEmpty++
				}
			}
			if nonEmpty < len(cases)/2 {
				t.Errorf("only %d of %d projected answers have rows", nonEmpty, len(cases))
			}
		})
	}
}

// servedCachePages is the answer cache's capacity in the served
// configuration, the default: at the oracle's scale it admits some predicted
// finals and is smaller than others (at 1024 pages it admits all of them).
const servedCachePages = 256

// oracleServed is TestOracleAgreesWithEngine's served configuration: the
// reference corpus replayed twice on one engine with one Predictor,
// AnswerCache and Learner, as RunPredictBench does — the first pass trains,
// and every GO of the second, served from the cache or executed, is compared
// with the oracle. The cache is small enough that the admission walk refuses
// some predicted finals it could never hold (DESIGN.md §14) while it stores
// others, and both must occur.
func oracleServed(t *testing.T) {
	env := tinyEnv(t, EnvConfig{Scale: oracleScale})
	queries, _ := oracleQueries(t, env.Eng) // the corpus finals first, in trace and GO order
	traces, err := trace.GenerateCorpus(tpch.Vocabulary(), 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	base := core.DefaultConfig()
	base.Predictor = core.NewPredictor(core.DefaultPredictorConfig())
	base.Answers = core.NewAnswerCache(env.Eng.Metrics(), servedCachePages)
	learner := core.NewLearner(core.DefaultLearnerConfig())
	counter := func(name string) int64 { return env.Eng.Metrics().Snapshot().Counters[name] }

	type answer struct {
		query  int
		rows   []tuple.Row
		served bool
	}
	var answers []answer
	var refused, stored int64
	for pass := range 2 {
		refused0, stored0 := counter("answers.refused"), counter("answers.stored")
		query := 0
		for i, tr := range traces {
			if err := env.Eng.ColdStart(); err != nil {
				t.Fatal(err)
			}
			cfg := base
			cfg.NamePrefix = fmt.Sprintf("served_p%d_t%d", pass, i)
			sp := core.NewSpeculator(env.Eng, learner, cfg)
			for _, ev := range tr.Events {
				at := ev.At()
				if err := sp.Advance(at); err != nil {
					t.Fatal(err)
				}
				if ev.Kind != trace.EvGo {
					if _, err := sp.OnEvent(ev, at); err != nil {
						t.Fatal(err)
					}
					continue
				}
				res, _, err := sp.OnGo(at)
				if err != nil {
					t.Fatal(err)
				}
				if pass == 1 {
					answers = append(answers, answer{query: query, rows: res.Rows, served: res.Plan == nil})
				}
				query++
			}
			if err := sp.Shutdown(); err != nil {
				t.Fatal(err)
			}
		}
		refused, stored = counter("answers.refused")-refused0, counter("answers.stored")-stored0
	}
	if len(answers) != 124 {
		t.Fatalf("the replay pass answered %d GOs, want the corpus's 124", len(answers))
	}
	served := 0
	for _, a := range answers {
		q := queries[a.query]
		if diff := sameMultiset(a.rows, oracleEval(t, env.Eng, q)); diff != "" {
			t.Errorf("query %d (%s) projecting %v, served %v:\n%s", a.query, q.Graph, q.Projections, a.served, diff)
		}
		if a.served {
			served++
		}
	}
	// The configuration must be able to see: GOs answered from the cache,
	// predictions stored, and candidates refused at the walk.
	if served == 0 || stored == 0 || refused == 0 {
		t.Errorf("replay pass: %d GOs served, %d predictions stored, %d candidates refused at the walk; want each above zero", served, stored, refused)
	}
}

// TestProjectionDoesNotMoveWork: a query's work does not depend on how many
// of its columns it returns (DESIGN.md §15, "What a query decodes and
// copies"). For every final of the reference corpus, Result.Work under the
// trace's projection equals Result.Work of the same graph under SELECT * —
// through RunQuery from a cold 8-frame pool, whose work memory is a quarter
// of it (16 KB: at the tiny scale about forty of the finals spill), and planned and run with one byte of work memory, where every join
// spills. A join that charged its spill by the columns it kept instead of the
// stored records would charge fewer pages under the narrower projection.
func TestProjectionDoesNotMoveWork(t *testing.T) {
	env := tinyEnv(t, EnvConfig{BufferPoolPages: 8})
	eng := env.Eng
	traces, err := trace.GenerateCorpus(tpch.Vocabulary(), 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	atEngine := func(q *plan.Query) sim.Work {
		if err := eng.ColdStart(); err != nil {
			t.Fatal(err)
		}
		res, err := eng.RunQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		return res.Work
	}
	atOneByte := func(q *plan.Query) sim.Work {
		node, err := plan.Optimize(eng.Catalog, q, plan.Options{Rates: sim.DefaultRates(), WorkMemBytes: 1})
		if err != nil {
			t.Fatal(err)
		}
		meter := sim.NewMeter()
		it, err := node.Build(&exec.Context{Meter: meter, WorkMemBytes: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := exec.Collect(it); err != nil {
			t.Fatal(err)
		}
		return meter.Snapshot()
	}
	finals, narrow, spilled := 0, 0, map[string]int{}
	for _, tr := range traces {
		qs, err := trace.ExtractQueries(tr)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range qs {
			projected, err := plan.BindGraphProjections(eng.Catalog, f.Graph, f.Projs)
			if err != nil {
				t.Fatal(err)
			}
			star, err := plan.BindGraph(eng.Catalog, f.Graph)
			if err != nil {
				t.Fatal(err)
			}
			finals++
			if len(projected.Projections) < len(star.Projections) {
				narrow++
			}
			for name, run := range map[string]func(*plan.Query) sim.Work{"engine work memory": atEngine, "1-byte work memory": atOneByte} {
				got, want := run(projected), run(star)
				if got != want {
					t.Errorf("%s, %s projecting %v: work %+v, under SELECT * %+v", name, f.Graph, projected.Projections, got, want)
				}
				if want.PageWrites > 0 {
					spilled[name]++
				}
			}
		}
	}
	if finals != 124 || narrow < 60 {
		t.Fatalf("%d finals, %d of them narrower than SELECT *; want 124, and at least 60 narrower", finals, narrow)
	}
	for _, name := range []string{"engine work memory", "1-byte work memory"} {
		if spilled[name] == 0 {
			t.Errorf("no final spilled at %s", name)
		}
	}
	t.Logf("%d finals, %d projecting fewer columns than SELECT *; spilling: %v", finals, narrow, spilled)
}
