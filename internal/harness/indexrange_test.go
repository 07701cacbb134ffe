package harness

import (
	"math"
	"testing"

	"specdb/internal/plan"
	"specdb/internal/qgraph"
	"specdb/internal/tpch"
	"specdb/internal/tuple"
)

// TestIndexRangesAgreeWithCompare holds selections on indexed columns whose
// constants Value.Compare treats specially — −0.0 equals +0.0, NaN equals
// everything, an integer constant on a float column compares as a float, a
// float constant on an integer column compares against the column's values
// as floats — to the nested-loops oracle. At tpch.Scale100MB
// lineitem.l_discount holds 2,729 zeros, and the planner drives an index scan
// for a selective range; the reduced oracle scale picks a sequential scan for
// these constants, so the generated oracle queries do not reach this path.
func TestIndexRangesAgreeWithCompare(t *testing.T) {
	env := tinyEnv(t, EnvConfig{Scale: tpch.Scale100MB})
	negZero := tuple.NewFloat(math.Copysign(0, -1))
	nan := tuple.NewFloat(math.NaN())
	for _, c := range []struct {
		col   string
		op    tuple.CmpOp
		konst tuple.Value
		index bool // the plan drives an index scan
	}{
		{"l_discount", tuple.CmpEQ, negZero, true},
		{"l_discount", tuple.CmpLE, negZero, true},
		{"l_discount", tuple.CmpLT, tuple.NewFloat(0), true},
		{"l_discount", tuple.CmpGT, negZero, false},
		{"l_discount", tuple.CmpEQ, nan, false},
		{"l_discount", tuple.CmpLT, nan, false},
		{"l_discount", tuple.CmpEQ, tuple.NewInt(0), true},
		{"l_discount", tuple.CmpGE, tuple.NewInt(1), true},
		{"l_quantity", tuple.CmpLT, tuple.NewFloat(1.5), false},
		{"l_quantity", tuple.CmpEQ, tuple.NewInt(1), true},
	} {
		g := qgraph.SelectionSubgraph(qgraph.Selection{Rel: "lineitem", Col: c.col, Op: c.op, Const: c.konst})
		q, err := plan.BindGraph(env.Eng.Catalog, g)
		if err != nil {
			t.Fatal(err)
		}
		res, err := env.Eng.RunQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		index := false
		plan.Walk(res.Plan, func(n plan.Node) {
			if a, ok := n.(*plan.TableAccess); ok && a.Method == plan.AccessIndex {
				index = true
			}
		})
		want := oracleNestedLoops(t, env.Eng, q)
		if RowSetKey(res.Rows) != RowSetKey(want) || index != c.index {
			t.Errorf("%s: %d rows, the oracle %d; index scan %v, want %v\n%s",
				g, len(res.Rows), len(want), index, c.index, plan.Explain(res.Plan))
		}
	}
}
