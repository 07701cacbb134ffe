package harness

import (
	"fmt"
	"slices"
	"testing"

	"specdb/internal/core"
	"specdb/internal/engine"
	"specdb/internal/plan"
	"specdb/internal/sim"
	"specdb/internal/tuple"
)

// oracleQueriesOverStates is the number of generated queries
// TestOracleOverDerivedStates asks, each in one to three derived-object
// states: about a hundred states in all.
const oracleQueriesOverStates = 50

// TestOracleOverDerivedStates runs generated queries (genOracleQuery) against
// the derived-object states a speculator could leave behind. Before each
// query it applies one to three random changes through the engine calls the
// speculator builds and drops with: a materialization of one of the query's
// candidate fragments, forced or optional; an index or a histogram created or
// dropped on one of its relations; a view dropped. In the state after each
// change two things must hold:
//   - the engine's answer equals the nested-loops oracle's;
//   - a cost model kept across every state, whose plan memo (DESIGN.md §5)
//     planned the query's candidates in the state before, prices every
//     candidate exactly as a fresh cost model does — the memo never serves
//     a plan of an earlier catalog version.
func TestOracleOverDerivedStates(t *testing.T) {
	env := tinyEnv(t, EnvConfig{Scale: oracleScale})
	eng := env.Eng
	cols := loadOracleColumns(t, eng)
	learner := core.NewLearner(core.DefaultLearnerConfig())
	model := func() *core.CostModel { return &core.CostModel{Eng: eng, Learner: learner, Lookahead: 3} }
	kept := model()
	ops := core.OpSet{Materialize: true, Index: true, Histogram: true, Stage: true}
	price := func(cm *core.CostModel, cands []core.Manipulation) []core.Manipulation {
		t.Helper()
		out := slices.Clone(cands)
		for i := range out {
			if err := cm.Score(&out[i], "", 5); err != nil {
				t.Fatalf("%v: %v", out[i], err)
			}
		}
		return out
	}
	rng := sim.NewRand(56)
	st := &derivedState{eng: eng, rng: rng, done: map[string]int{}}
	for n := range oracleQueriesOverStates {
		q := genOracleQuery(t, eng, cols, rng.Uint64())
		cands := core.EnumerateManipulations(q.Graph, ops, false)
		price(kept, cands)
		var changes []string
		for range 1 + rng.Intn(3) {
			changes = append(changes, st.change(t, q, cands))
			where := fmt.Sprintf("query %d (%s) after %v", n, q.Graph, changes)
			res, err := eng.RunQuery(q)
			if err != nil {
				t.Fatalf("%s: %v", where, err)
			}
			if want := oracleEval(t, eng, q); RowSetKey(res.Rows) != RowSetKey(want) {
				t.Errorf("%s projecting %v:\n%s\n%s", where, q.Projections, sameMultiset(res.Rows, want), plan.Explain(res.Plan))
			}
			got, want := price(kept, cands), price(model(), cands)
			for i := range got {
				g, w := got[i], want[i]
				if g.EstDuration != w.EstDuration || g.Benefit != w.Benefit || g.EstPages != w.EstPages {
					t.Errorf("%s: %v priced %v / %v / %d pages by the kept cost model, %v / %v / %d by a fresh one",
						where, g, g.EstDuration, g.Benefit, g.EstPages, w.EstDuration, w.Benefit, w.EstPages)
				}
			}
		}
	}
	for _, kind := range []string{"materialize forced", "materialize optional", "drop view",
		"create index", "drop index", "create histogram", "drop histogram"} {
		if st.done[kind] == 0 {
			t.Errorf("no state was reached by %s: %v", kind, st.done)
		}
	}
}

// derivedState applies the random changes of TestOracleOverDerivedStates and
// counts them by kind.
type derivedState struct {
	eng   *engine.Engine
	rng   *sim.Rand
	views []string
	done  map[string]int
}

// change applies one random change near q — on one of its relations, or a
// materialization of one of its candidate fragments — and names it.
func (s *derivedState) change(t *testing.T, q *plan.Query, cands []core.Manipulation) string {
	t.Helper()
	rels := q.Graph.Relations()
	rel := rels[s.rng.Intn(len(rels))]
	tb, err := s.eng.Catalog.Table(rel)
	if err != nil {
		t.Fatal(err)
	}
	var numeric []string
	for _, c := range tb.Schema.Columns {
		if c.Kind != tuple.KindString {
			numeric = append(numeric, c.Name)
		}
	}
	// A histogram moves an estimate only on a column the query selects on
	// with a number, so a histogram change goes there when there is one, and
	// flips the column's histogram: a histogram made again where one is
	// estimates nothing new.
	histRel, histCol := rel, numeric[s.rng.Intn(len(numeric))]
	for _, sel := range q.Graph.Selections() {
		if sel.Const.IsNumeric() {
			histRel, histCol = sel.Rel, sel.Col
		}
	}
	histTable, err := s.eng.Catalog.Table(histRel)
	if err != nil {
		t.Fatal(err)
	}
	var kind string
	switch s.rng.Intn(5) {
	case 0:
		var frags []core.Manipulation
		for _, m := range cands {
			if m.Kind == core.ManipMaterialize {
				frags = append(frags, m)
			}
		}
		if len(frags) == 0 {
			return "nothing"
		}
		m := frags[s.rng.Intn(len(frags))]
		forced := s.rng.Intn(2) == 0
		name := s.eng.FreshName("spec_oracle")
		if _, err := s.eng.Materialize(name, m.Graph, forced); err != nil {
			t.Fatal(err)
		}
		s.views = append(s.views, name)
		kind = "materialize optional"
		if forced {
			kind = "materialize forced"
		}
		s.done[kind]++
		kind += " " + m.Graph.String()
	case 1:
		if len(s.views) == 0 {
			return "nothing"
		}
		i := s.rng.Intn(len(s.views))
		if err := s.eng.DropTable(s.views[i]); err != nil {
			t.Fatal(err)
		}
		kind = "drop view " + s.views[i]
		s.views = slices.Delete(s.views, i, i+1)
		s.done["drop view"]++
	case 2:
		col := numeric[s.rng.Intn(len(numeric))]
		if tb.Index(col) != nil {
			return "nothing"
		}
		if _, err := s.eng.CreateIndex(rel, col, nil); err != nil {
			t.Fatal(err)
		}
		kind = "create index " + rel + "." + col
		s.done["create index"]++
	case 3:
		idxs := tb.IndexList()
		if len(idxs) == 0 {
			return "nothing"
		}
		idx := idxs[s.rng.Intn(len(idxs))]
		if err := s.eng.DropIndex(rel, idx.Column); err != nil {
			t.Fatal(err)
		}
		kind = "drop index " + rel + "." + idx.Column
		s.done["drop index"]++
	default:
		kind = "drop histogram"
		if histTable.ColumnStats(histCol).Hist() == nil {
			kind = "create histogram"
			_, err = s.eng.CreateHistogram(histRel, histCol, nil)
		} else {
			err = s.eng.DropHistogram(histRel, histCol)
		}
		if err != nil {
			t.Fatal(err)
		}
		s.done[kind]++
		kind += " " + histRel + "." + histCol
	}
	return kind
}
