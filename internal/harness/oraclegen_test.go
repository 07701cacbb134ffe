package harness

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"specdb/internal/engine"
	"specdb/internal/plan"
	"specdb/internal/qgraph"
	"specdb/internal/sim"
	"specdb/internal/storage"
	"specdb/internal/tpch"
	"specdb/internal/tuple"
)

// oracleEdges are the edge constants of each kind (the value representation's
// edge table): the neighbours of ±2⁵³, where float64 stops telling integers
// apart, the ends of int64, both zeros, NaN, the infinities, the empty string
// and date 0.
var oracleEdges = map[tuple.Kind][]tuple.Value{
	tuple.KindInt: {
		tuple.NewInt(math.MinInt64), tuple.NewInt(math.MinInt64 + 1), tuple.NewInt(math.MaxInt64),
		tuple.NewInt(-1<<53 - 1), tuple.NewInt(-1 << 53), tuple.NewInt(1<<53 - 1), tuple.NewInt(1 << 53), tuple.NewInt(1<<53 + 1),
		tuple.NewInt(0), tuple.NewInt(-1),
	},
	tuple.KindFloat: {
		tuple.NewFloat(math.Copysign(0, -1)), tuple.NewFloat(0), tuple.NewFloat(math.NaN()),
		tuple.NewFloat(math.Inf(1)), tuple.NewFloat(math.Inf(-1)), tuple.NewFloat(1 << 53), tuple.NewFloat(-1 << 53),
	},
	tuple.KindString: {tuple.NewString("")},
	tuple.KindDate:   {tuple.NewDate(0), tuple.NewDate(math.MinInt64), tuple.NewDate(math.MaxInt64)},
}

// oracleColumns holds every stored value of every column of the loaded
// relations, the generator's source of constants that select some rows.
type oracleColumns map[string][]tuple.Row

func loadOracleColumns(tb testing.TB, eng *engine.Engine) oracleColumns {
	tb.Helper()
	cols := oracleColumns{}
	for rel := range tpch.Schemas() {
		t, err := eng.Catalog.Table(rel)
		if err != nil {
			tb.Fatal(err)
		}
		err = t.Heap.Scan(func(_ storage.RID, rec []byte) error {
			row, _, err := tuple.DecodeRow(rec, t.Schema)
			cols[rel] = append(cols[rel], row)
			return err
		})
		if err != nil {
			tb.Fatal(err)
		}
	}
	return cols
}

// genOracleQuery draws a conjunctive SPJ query over the TPC-H subset from
// seed: one to four relations joined along the foreign keys (every edge
// between the chosen relations, so the part – lineitem – supplier – partsupp
// cycle joins on two edges at once), zero to three selections whose constants
// are edge constants of the column's kind or values the column holds, and
// SELECT * or one to three projected columns, possibly repeated.
func genOracleQuery(tb testing.TB, eng *engine.Engine, cols oracleColumns, seed uint64) *plan.Query {
	tb.Helper()
	rng := sim.NewRand(seed)
	schemas := tpch.Schemas()
	names := make([]string, 0, len(schemas))
	for rel := range schemas {
		names = append(names, rel)
	}
	slices.Sort(names)
	rels := []string{names[rng.Intn(len(names))]}
	for want := 1 + rng.Intn(4); len(rels) < want; {
		var next []string
		for _, j := range tpch.JoinEdges() {
			if slices.Contains(rels, j.LeftRel) && !slices.Contains(rels, j.RightRel) {
				next = append(next, j.RightRel)
			} else if slices.Contains(rels, j.RightRel) && !slices.Contains(rels, j.LeftRel) {
				next = append(next, j.LeftRel)
			}
		}
		if len(next) == 0 {
			break
		}
		rels = append(rels, next[rng.Intn(len(next))])
	}
	g := qgraph.New()
	for _, r := range rels {
		g.AddRelation(r)
	}
	for _, j := range tpch.JoinEdges() {
		if g.HasRelation(j.LeftRel) && g.HasRelation(j.RightRel) {
			g.AddJoin(j)
		}
	}
	ops := []tuple.CmpOp{tuple.CmpEQ, tuple.CmpNE, tuple.CmpLT, tuple.CmpLE, tuple.CmpGT, tuple.CmpGE}
	for range rng.Intn(4) {
		rel := rels[rng.Intn(len(rels))]
		s := schemas[rel]
		ord := rng.Intn(s.Len())
		col := s.Columns[ord]
		var c tuple.Value
		if edges := oracleEdges[col.Kind]; rng.Intn(2) == 0 {
			c = edges[rng.Intn(len(edges))]
		} else {
			c = cols[rel][rng.Intn(len(cols[rel]))][ord]
		}
		g.AddSelection(qgraph.Selection{Rel: rel, Col: col.Name, Op: ops[rng.Intn(len(ops))], Const: c})
	}
	var projs []string
	if rng.Intn(2) == 0 {
		for range 1 + rng.Intn(3) {
			rel := rels[rng.Intn(len(rels))]
			projs = append(projs, rel+"."+schemas[rel].Columns[rng.Intn(schemas[rel].Len())].Name)
		}
	}
	q, err := plan.BindGraphProjections(eng.Catalog, g, projs)
	if err != nil {
		tb.Fatalf("seed %d: %v", seed, err)
	}
	return q
}

// FuzzOracleQueries runs generated queries (genOracleQuery) through RunQuery
// on the default configuration — the oracle's reduced load on the default
// pool — and holds each answer to the nested-loops oracle as a multiset
// (RowSetKey: kind and payload bits of every value). The seed corpus is the
// first oracleGenSeeds seeds; a native run draws others.
func FuzzOracleQueries(f *testing.F) {
	env, err := NewEnv(EnvConfig{Scale: oracleScale, Seed: 42})
	if err != nil {
		f.Fatal(err)
	}
	cols := loadOracleColumns(f, env.Eng)
	for seed := range uint64(oracleGenSeeds) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		q := genOracleQuery(t, env.Eng, cols, seed)
		res, err := env.Eng.RunQuery(q)
		if err != nil {
			t.Fatalf("seed %d (%s): %v", seed, q.Graph, err)
		}
		// RowSetKey first: rendering a hundred thousand rows for
		// sameMultiset costs seconds, and only a difference needs it.
		want := oracleNestedLoops(t, env.Eng, q)
		if RowSetKey(res.Rows) == RowSetKey(want) {
			return
		}
		diff := sameMultiset(res.Rows, want)
		if diff == "" {
			diff = "the multisets render alike, but their fingerprints differ"
		}
		t.Fatalf("seed %d (%s) projecting %v:\n%s\n%s", seed, q.Graph, q.Projections, diff, plan.Explain(res.Plan))
	})
}

// oracleGenSeeds is the size of FuzzOracleQueries' seed corpus.
const oracleGenSeeds = 200

// TestOracleGeneratorReaches checks that the seed corpus of FuzzOracleQueries
// draws what it is there for: multi-way and multi-edge joins, selections
// with edge constants of every kind, selections with stored values, answers
// with rows in them, and plans with index scans, index nested loops, gated
// probe scans and fused selections — the paths that test values on the raw
// record.
func TestOracleGeneratorReaches(t *testing.T) {
	env := tinyEnv(t, EnvConfig{Scale: oracleScale})
	cols := loadOracleColumns(t, env.Eng)
	counts := map[string]int{}
	for seed := range uint64(oracleGenSeeds) {
		q := genOracleQuery(t, env.Eng, cols, seed)
		rels := q.Graph.Relations()
		counts[fmt.Sprintf("%d relations", min(len(rels), 3))]++
		if len(q.Graph.Joins()) >= len(rels) {
			counts["multi-edge"]++
		}
		for _, s := range q.Graph.Selections() {
			isEdge := false
			for _, e := range oracleEdges[s.Const.Kind()] {
				isEdge = isEdge || s.Const.String() == e.String()
			}
			if isEdge {
				counts["edge "+s.Const.Kind().String()]++
			} else {
				counts["stored"]++
			}
		}
		// The engine's answer: FuzzOracleQueries holds it to the oracle.
		res, err := env.Eng.RunQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) > 0 {
			counts["non-empty"]++
		}
		plan.Walk(res.Plan, func(n plan.Node) {
			switch n := n.(type) {
			case *plan.JoinNode:
				if n.Method == plan.JoinIndexNL {
					counts["index-NL join"]++
				}
				if gatesProbe(n) {
					counts["gated probe"]++
				}
			case *plan.TableAccess:
				if n.Method == plan.AccessIndex {
					counts["index scan"]++
				}
				if fusesSelection(n) {
					counts["fused selection"]++
				}
			}
		})
	}
	for _, what := range []string{"1 relations", "2 relations", "3 relations", "multi-edge",
		"edge int", "edge float", "edge string", "edge date", "stored",
		"index-NL join", "gated probe", "index scan", "fused selection"} {
		if counts[what] == 0 {
			t.Errorf("the seed corpus draws no query with %s: %v", what, counts)
		}
	}
	if counts["non-empty"] < oracleGenSeeds/4 {
		t.Errorf("only %d of %d generated answers have rows: %v", counts["non-empty"], oracleGenSeeds, counts)
	}
}
