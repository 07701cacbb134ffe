package harness

import (
	"testing"

	"specdb/internal/catalog"
	"specdb/internal/core"
	"specdb/internal/exec"
	"specdb/internal/plan"
	"specdb/internal/sim"
	"specdb/internal/sql"
	"specdb/internal/trace"
	"specdb/internal/tuple"
)

// poisonIter enforces the lending rule of exec.Iterator from the consumer's
// side: the row an operator returned is overwritten with poison as soon as
// the operator is called again, which is the earliest moment the rule lets
// the operator reuse it. A consumer that kept the row instead of copying it,
// or an operator that relies on a row it lent out staying intact, then reads
// a string where the schema says otherwise: comparisons panic and answers
// change, instead of a stale row going unnoticed.
type poisonIter struct {
	inner exec.Iterator
	lent  tuple.Row
	count *int
}

func (p *poisonIter) spoil() {
	for i := range p.lent {
		p.lent[i] = tuple.NewString("\x00poisoned")
	}
	*p.count += len(p.lent)
	p.lent = nil
}

func (p *poisonIter) Open() error { return p.inner.Open() }

func (p *poisonIter) Next() (tuple.Row, bool, error) {
	p.spoil()
	row, ok, err := p.inner.Next()
	if ok && err == nil {
		p.lent = row
	}
	return row, ok, err
}

func (p *poisonIter) Close() error {
	p.spoil()
	return p.inner.Close()
}

func (p *poisonIter) Schema() *tuple.Schema { return p.inner.Schema() }

func (p *poisonIter) StoredLen() int { return p.inner.StoredLen() }

// Prune forwards the live columns, so the replay poisons the rows of pruned
// plans: a column an operator leaves unwritten stays poisoned, and a consumer
// that reads one reads poison.
func (p *poisonIter) Prune(live tuple.ColSet) {
	if inner, ok := p.inner.(exec.Pruner); ok {
		inner.Prune(live)
	}
}

// Gate forwards a hash join's key test, so the replay poisons the rows of
// gated probe scans too.
func (p *poisonIter) Gate(g *exec.KeyGate) bool {
	inner, ok := p.inner.(exec.Gated)
	return ok && inner.Gate(g)
}

// contractQueries are the equivalence corpus of the borrowed-row replay: the
// finals of two shortened metamorphic traces, and hand-written queries for
// the operators they do not reach.
func contractQueries(t *testing.T, cat *catalog.Catalog) []*plan.Query {
	t.Helper()
	var queries []*plan.Query
	for _, tr := range tinyTraces(t, 2) {
		qs, err := trace.ExtractQueries(tr)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range qs {
			bound, err := plan.BindGraphProjections(cat, q.Graph, q.Projs)
			if err != nil {
				t.Fatal(err)
			}
			queries = append(queries, bound)
		}
	}
	for _, src := range []string{
		// disconnected graph: cross join
		"SELECT * FROM supplier, part WHERE supplier.s_suppkey < 4 AND part.p_partkey < 5",
		// empty build side
		"SELECT * FROM orders, lineitem WHERE orders.o_orderkey = lineitem.l_orderkey AND orders.o_orderkey < 0",
		// index scan feeding joins with several matches per key
		"SELECT * FROM orders, lineitem WHERE orders.o_orderkey = lineitem.l_orderkey AND orders.o_orderkey < 40",
		"SELECT * FROM customer, orders, lineitem WHERE customer.c_custkey = orders.o_custkey AND orders.o_orderkey = lineitem.l_orderkey AND customer.c_custkey < 30",
		// a join whose both sides are large: hash join
		"SELECT * FROM orders, lineitem WHERE orders.o_orderkey = lineitem.l_orderkey",
	} {
		stmt, err := sql.ParseSelect(src)
		if err != nil {
			t.Fatal(err)
		}
		bound, err := plan.Bind(cat, stmt)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, bound)
	}
	return queries
}

// TestBorrowedRowContract replays the equivalence corpus — the metamorphic
// traces plus hand-written queries for the operators they do not reach — with
// every plan node wrapped in a poisonIter, over base tables and over a forced
// view, with and without spilling hash joins, and requires every answer to be
// the row multiset of the unwrapped run.
func TestBorrowedRowContract(t *testing.T) {
	env := tinyEnv(t, EnvConfig{BufferPoolPages: 512})
	cat := env.Eng.Catalog

	queries := contractQueries(t, cat)

	seen := map[string]bool{}
	poisoned := 0
	run := func(q *plan.Query, workMem int64, wrap bool) (int, uint64) {
		t.Helper()
		node, err := plan.Optimize(cat, q, plan.Options{Rates: sim.DefaultRates(), WorkMemBytes: workMem})
		if err != nil {
			t.Fatal(err)
		}
		plan.Walk(node, func(n plan.Node) {
			switch n := n.(type) {
			case *plan.TableAccess:
				if n.Method == plan.AccessIndex {
					seen["index scan"] = true
				} else {
					seen["seq scan"] = true
				}
				if cat.View(n.Table.Name) != nil {
					seen["view"] = true
				}
				if fusesSelection(n) {
					seen["fused selection"] = true
				}
			case *plan.JoinNode:
				seen[n.Method.String()] = true
				if gatesProbe(n) {
					seen["gated probe"] = true
				}
			}
		})
		ctx := &exec.Context{Meter: sim.NewMeter(), WorkMemBytes: workMem}
		if wrap {
			ctx.Observe = func(_ any, it exec.Iterator) exec.Iterator {
				return &poisonIter{inner: it, count: &poisoned}
			}
		}
		it, err := node.Build(ctx)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := exec.Collect(it)
		if err != nil {
			t.Fatalf("%v\n%s", err, plan.Explain(node))
		}
		return len(rows), RowSetKey(rows)
	}
	check := func(stage string) {
		t.Helper()
		// Work memory of one byte makes every non-empty build side spill.
		for _, workMem := range []int64{int64(512*8192) / 4, 1} {
			for i, q := range queries {
				n, key := run(q, workMem, false)
				pn, pkey := run(q, workMem, true)
				if pn != n || pkey != key {
					t.Errorf("%s, work memory %d, query %d: %d rows (key %x) with lent rows poisoned, %d rows (key %x) without",
						stage, workMem, i, pn, pkey, n, key)
				}
			}
		}
	}
	check("base tables")

	// A forced view of orders ⋈ lineitem rewrites every query containing it.
	last := queries[len(queries)-1]
	if _, err := env.Eng.Materialize("borrowed_view", last.Graph, true); err != nil {
		t.Fatal(err)
	}
	check("forced view")

	for _, want := range []string{"seq scan", "index scan", "HashJoin", "IndexNLJoin", "CrossJoin", "view", "fused selection", "gated probe"} {
		if !seen[want] {
			t.Errorf("the corpus never planned %s; seen %v", want, seen)
		}
	}
	if poisoned == 0 {
		t.Fatal("no lent row was ever poisoned: the wrapper was not installed")
	}
}

// TestTinyPoolAnswersMatchLargePool replays the metamorphic traces, with and
// without speculation, on a pool so small that nearly every page fetch evicts
// a frame and hands its buffer to the incoming page, and on one that holds
// the whole dataset. A record, key or row that outlives its page pin reads
// another page's bytes on the small pool only, so the answers would differ.
func TestTinyPoolAnswersMatchLargePool(t *testing.T) {
	traces := tinyTraces(t, 2)
	replay := func(pages int, speculate bool) [][]QueryTiming {
		t.Helper()
		env := tinyEnv(t, EnvConfig{BufferPoolPages: pages})
		loaded := env.Eng.Pool.Stats()
		var out [][]QueryTiming
		for i, tr := range traces {
			var timings []QueryTiming
			var err error
			if speculate {
				var spec *SpecOutcome
				if spec, err = RunTraceSpeculative(env.Eng, i, tr, core.DefaultConfig()); err == nil {
					timings = spec.Timings
				}
			} else {
				timings, err = RunTraceNormal(env.Eng, i, tr)
			}
			if err != nil {
				t.Fatalf("pool of %d pages, speculation %v, trace %d: %v", pages, speculate, i, err)
			}
			out = append(out, timings)
		}
		// Once the pool is full every miss recycles a frame.
		if misses := env.Eng.Pool.Stats().Misses - loaded.Misses; pages < 512 && misses < 1000 {
			t.Fatalf("pool of %d pages missed only %d times: not small enough to recycle frames", pages, misses)
		}
		if err := env.Eng.Pool.MisuseError(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	for _, speculate := range []bool{false, true} {
		want, got := replay(512, speculate), replay(8, speculate)
		for ti := range want {
			for qi := range want[ti] {
				if w, g := want[ti][qi], got[ti][qi]; g.Rows != w.Rows || g.RowsKey != w.RowsKey {
					t.Errorf("speculation %v, trace %d query %d: %d rows (key %x) on the tiny pool, %d rows (key %x) on the large one",
						speculate, ti, qi, g.Rows, g.RowsKey, w.Rows, w.RowsKey)
				}
			}
		}
	}
}
