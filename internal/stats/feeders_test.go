package stats_test

import (
	"fmt"
	"testing"

	"specdb/internal/catalog"
	"specdb/internal/engine"
	"specdb/internal/qgraph"
	"specdb/internal/stats"
	"specdb/internal/tpch"
	"specdb/internal/trace"
	"specdb/internal/tuple"
)

// TestBothFeedersAgree: the statistics a Materialize streams while it writes a
// view, the statistics Analyze then computes from the view's heap, and the
// buffered reference over catalog.ColumnValues are three routes to the same
// numbers, column for column — over the speculative builds cmd/bench's engine
// probes time (the selection and join sub-graphs of the corpus' finals) and
// one view with no rows.
func TestBothFeedersAgree(t *testing.T) {
	eng := engine.New(engine.Config{BufferPoolPages: 512})
	if err := tpch.Load(eng, tpch.Scale100MB, 42); err != nil {
		t.Fatal(err)
	}
	traces, err := trace.GenerateCorpus(tpch.Vocabulary(), 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	empty := qgraph.SelectionSubgraph(qgraph.Selection{Rel: "lineitem", Col: "l_quantity", Op: tuple.CmpLT, Const: tuple.NewInt(-1)})
	graphs := []*qgraph.Graph{empty}
	seen := map[string]bool{empty.Key(): true}
	add := func(g *qgraph.Graph) {
		if len(graphs) <= 16 && !seen[g.Key()] {
			seen[g.Key()] = true
			graphs = append(graphs, g)
		}
	}
	for _, tr := range traces {
		finals, err := trace.ExtractQueries(tr)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range finals {
			for _, s := range q.Graph.Selections() {
				add(qgraph.SelectionSubgraph(s))
			}
			for _, j := range q.Graph.Joins() {
				add(qgraph.JoinSubgraph(q.Graph, j))
			}
		}
	}

	joins := 0
	for i, g := range graphs {
		name := fmt.Sprintf("mv%d", i)
		res, err := eng.Materialize(name, g, false)
		if err != nil {
			t.Fatalf("%s: %v", g.Key(), err)
		}
		if g == empty && res.RowCount != 0 {
			t.Fatalf("%s: %d rows, want none", g.Key(), res.RowCount)
		}
		if len(g.Joins()) > 0 {
			joins++
		}
		view, err := eng.Catalog.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		streamed := make([]stats.Summary, view.Schema.Len())
		for ci, c := range view.Schema.Columns {
			cs := view.ColumnStats(c.Name)
			if cs == nil || cs.Count != res.RowCount {
				t.Fatalf("%s.%s: streamed statistics %+v for %d rows", name, c.Name, cs, res.RowCount)
			}
			streamed[ci] = stats.SummaryOf(cs)
		}
		// A histogram created between the build and the ANALYZE survives it.
		histCol := ""
		for _, c := range view.Schema.Columns {
			if c.Kind != tuple.KindString {
				histCol = c.Name
				break
			}
		}
		if _, err := eng.CreateHistogram(name, histCol, nil); err != nil {
			t.Fatal(err)
		}
		hist := view.ColumnStats(histCol).Hist()
		if hist == nil {
			t.Fatalf("%s.%s: no histogram attached", name, histCol)
		}
		if err := eng.Analyze(name, nil); err != nil {
			t.Fatal(err)
		}
		if got := view.ColumnStats(histCol).Hist(); got != hist {
			t.Fatalf("%s.%s: ANALYZE replaced or dropped the histogram", name, histCol)
		}
		for ci, c := range view.Schema.Columns {
			if got := stats.SummaryOf(view.ColumnStats(c.Name)); !got.Same(streamed[ci]) {
				t.Fatalf("%s.%s: ANALYZE computed %+v, the build streamed %+v", name, c.Name, got, streamed[ci])
			}
			values, err := catalog.ColumnValues(view, c.Name)
			if err != nil {
				t.Fatal(err)
			}
			if want := stats.SummaryOf(stats.ReferenceColumnStats(values)); !want.Same(streamed[ci]) {
				t.Fatalf("%s.%s: reference computed %+v, the build streamed %+v", name, c.Name, want, streamed[ci])
			}
		}
		if err := eng.DropTable(name); err != nil {
			t.Fatal(err)
		}
	}
	if joins == 0 || joins == len(graphs)-1 {
		t.Fatalf("%d of %d sub-graphs are joins; the corpus should give both kinds", joins, len(graphs)-1)
	}
}
