package trace

import (
	"math"
	"testing"

	"specdb/internal/qgraph"
	"specdb/internal/tuple"
)

// testVocabulary is a small schema mimicking the TPC-H shape without
// importing the tpch package (which would be an import cycle risk and an
// unnecessary dependency for unit tests).
func testVocabulary() *Vocabulary {
	return &Vocabulary{
		Relations: []string{"customer", "lineitem", "orders", "part", "partsupp", "supplier"},
		Joins: []qgraph.Join{
			qgraph.NewJoin("customer", "ck", "orders", "ck"),
			qgraph.NewJoin("orders", "ok", "lineitem", "ok"),
			qgraph.NewJoin("part", "pk", "lineitem", "pk"),
			qgraph.NewJoin("supplier", "sk", "lineitem", "sk"),
			qgraph.NewJoin("part", "pk", "partsupp", "pk"),
			qgraph.NewJoin("supplier", "sk", "partsupp", "sk"),
		},
		Selections: []SelectionTemplate{
			{Rel: "customer", Col: "bal", Kind: tuple.KindFloat, Min: 0, Max: 1000},
			{Rel: "orders", Col: "price", Kind: tuple.KindFloat, Min: 0, Max: 5000},
			{Rel: "orders", Col: "prio", Kind: tuple.KindInt, Min: 1, Max: 5},
			{Rel: "lineitem", Col: "qty", Kind: tuple.KindInt, Min: 1, Max: 50},
			{Rel: "part", Col: "size", Kind: tuple.KindInt, Min: 1, Max: 50},
			{Rel: "supplier", Col: "bal", Kind: tuple.KindFloat, Min: -900, Max: 10000},
			{Rel: "partsupp", Col: "qty", Kind: tuple.KindInt, Min: 1, Max: 10000},
		},
	}
}

func TestValueRoundTrip(t *testing.T) {
	vals := []tuple.Value{
		tuple.NewInt(-7), tuple.NewFloat(2.5), tuple.NewString("x"), tuple.NewDate(9000),
	}
	for _, v := range vals {
		got, err := FromValue(v).ToValue()
		if err != nil {
			t.Fatal(err)
		}
		if got.Kind() != v.Kind() || !got.Equal(v) {
			t.Fatalf("round trip %v -> %v", v, got)
		}
	}
	if _, err := (ValueJSON{Kind: "blob"}).ToValue(); err == nil {
		t.Fatal("bad kind should fail")
	}
}

func TestSelectionJoinRoundTrip(t *testing.T) {
	s := qgraph.Selection{Rel: "orders", Col: "price", Op: tuple.CmpGE, Const: tuple.NewFloat(10)}
	got, err := FromSelection(s).ToSelection()
	if err != nil {
		t.Fatal(err)
	}
	if got.Key() != s.Key() {
		t.Fatalf("selection round trip: %v vs %v", got, s)
	}
	j := qgraph.NewJoin("a", "x", "b", "y")
	if FromJoin(j).ToJoin() != j {
		t.Fatal("join round trip failed")
	}
}

func TestGenerateProducesValidTrace(t *testing.T) {
	tr, err := Generate(testVocabulary(), DefaultGenConfig("u1", 1))
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumQueries() != 42 {
		t.Fatalf("queries = %d, want 42", tr.NumQueries())
	}
	qs, err := ExtractQueries(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 42 {
		t.Fatalf("extracted %d queries", len(qs))
	}
	for i, q := range qs {
		if q.Graph.IsEmpty() {
			t.Fatalf("query %d empty", i)
		}
		if !q.Graph.IsConnected() {
			t.Fatalf("query %d disconnected: %v", i, q.Graph)
		}
		if q.FormulationSeconds() <= 0 {
			t.Fatalf("query %d formulation %.3fs", i, q.FormulationSeconds())
		}
		if q.GoAt < q.FormulationStart {
			t.Fatalf("query %d timestamps inverted", i)
		}
	}
}

func TestTraceJSONRoundTrip(t *testing.T) {
	tr, err := Generate(testVocabulary(), DefaultGenConfig("u1", 3))
	if err != nil {
		t.Fatal(err)
	}
	data, err := tr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.User != tr.User || len(got.Events) != len(tr.Events) {
		t.Fatalf("round trip: %d events vs %d", len(got.Events), len(tr.Events))
	}
	// Extracted queries must be identical.
	q1, _ := ExtractQueries(tr)
	q2, _ := ExtractQueries(got)
	for i := range q1 {
		if q1[i].Graph.Key() != q2[i].Graph.Key() {
			t.Fatalf("query %d differs after round trip", i)
		}
	}
}

func TestDecodeRejectsBadTraces(t *testing.T) {
	cases := []string{
		`{not json`,
		`{"user":"u","events":[{"at":5,"kind":"go"},{"at":1,"kind":"go"}]}`, // time travel
		`{"user":"u","events":[{"at":1,"kind":"add_selection"}]}`,           // missing payload
		`{"user":"u","events":[{"at":1,"kind":"warp"}]}`,                    // unknown kind
		`{"user":"u","events":[{"at":1,"kind":"add_join"}]}`,                // missing join
		`{"user":"u","events":[{"at":1,"kind":"add_relation"}]}`,            // missing rel
		`{"user":"u","events":[{"at":1,"kind":"add_selection","sel":{"rel":"r","col":"c","op":"LIKE","const":{"kind":"int"}}}]}`,
	}
	for _, src := range cases {
		if _, err := Decode([]byte(src)); err == nil {
			t.Errorf("Decode(%q) succeeded, want error", src)
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	v := testVocabulary()
	a, err := Generate(v, DefaultGenConfig("u", 99))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(v, DefaultGenConfig("u", 99))
	if err != nil {
		t.Fatal(err)
	}
	da, _ := a.Encode()
	db, _ := b.Encode()
	if string(da) != string(db) {
		t.Fatal("same seed produced different traces")
	}
	c, err := Generate(v, DefaultGenConfig("u", 100))
	if err != nil {
		t.Fatal(err)
	}
	dc, _ := c.Encode()
	if string(da) == string(dc) {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestCorpusMatchesSection5(t *testing.T) {
	v := testVocabulary()
	traces, err := GenerateCorpus(v, 15, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 15 {
		t.Fatalf("corpus size %d", len(traces))
	}

	fs, err := CorpusFormulationStats(traces)
	if err != nil {
		t.Fatal(err)
	}
	// Paper's table: min 1, avg 28, max 680, p25 4, p50 11, p75 29.
	if fs.Min < 0.99 || fs.Min > 3 {
		t.Errorf("min formulation %v, want ≈1", fs.Min)
	}
	if fs.Avg < 18 || fs.Avg > 42 {
		t.Errorf("avg formulation %v, want ≈28", fs.Avg)
	}
	if fs.Median < 7 || fs.Median > 16 {
		t.Errorf("median formulation %v, want ≈11", fs.Median)
	}
	if fs.P25 < 2 || fs.P25 > 7 {
		t.Errorf("p25 formulation %v, want ≈4", fs.P25)
	}
	if fs.P75 < 20 || fs.P75 > 42 {
		t.Errorf("p75 formulation %v, want ≈29", fs.P75)
	}
	if fs.Max > 680+1 {
		t.Errorf("max formulation %v beyond clamp", fs.Max)
	}

	ss, err := CorpusStructureStats(traces)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: ~42 queries/trace, 1-2 selections, ~4 relations,
	// selection persistence ~3, join persistence ~10.
	if ss.AvgQueriesPerTrace < 38 || ss.AvgQueriesPerTrace > 46 {
		t.Errorf("queries/trace %v, want ≈42", ss.AvgQueriesPerTrace)
	}
	if ss.AvgSelectionsPerQry < 1 || ss.AvgSelectionsPerQry > 2.2 {
		t.Errorf("selections/query %v, want 1-2", ss.AvgSelectionsPerQry)
	}
	if ss.AvgRelationsPerQry < 3 || ss.AvgRelationsPerQry > 4.6 {
		t.Errorf("relations/query %v, want ≈4", ss.AvgRelationsPerQry)
	}
	if ss.SelectionPersistence < 2 || ss.SelectionPersistence > 4.5 {
		t.Errorf("selection persistence %v, want ≈3", ss.SelectionPersistence)
	}
	if ss.JoinPersistence < 6 || ss.JoinPersistence > 14 {
		t.Errorf("join persistence %v, want ≈10", ss.JoinPersistence)
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(&Vocabulary{}, DefaultGenConfig("u", 1)); err == nil {
		t.Fatal("empty vocabulary should fail")
	}
	cfg := DefaultGenConfig("u", 1)
	cfg.NumQueries = 0
	if _, err := Generate(testVocabulary(), cfg); err == nil {
		t.Fatal("zero queries should fail")
	}
}

func TestStateApplyAllKinds(t *testing.T) {
	st := NewState()
	sel := FromSelection(qgraph.Selection{Rel: "r", Col: "c", Op: tuple.CmpGT, Const: tuple.NewInt(1)})
	jn := FromJoin(qgraph.NewJoin("r", "a", "s", "a"))
	events := []Event{
		{Kind: EvAddSelection, Sel: &sel},
		{Kind: EvAddJoin, Join: &jn},
		{Kind: EvAddRelation, Rel: "t"},
		{Kind: EvSetProjections, Projs: []string{"r.c"}},
	}
	for _, e := range events {
		if err := st.Apply(e); err != nil {
			t.Fatal(err)
		}
	}
	if st.Graph.NumRelations() != 3 || st.Graph.NumSelections() != 1 || st.Graph.NumJoins() != 1 {
		t.Fatalf("state %v", st.Graph)
	}
	if len(st.Projs) != 1 {
		t.Fatalf("projections %v", st.Projs)
	}
	if err := st.Apply(Event{Kind: EvRemoveRelation, Rel: "t"}); err != nil {
		t.Fatal(err)
	}
	if st.Graph.HasRelation("t") {
		t.Fatal("relation not removed")
	}
	if err := st.Apply(Event{Kind: EvClear}); err != nil {
		t.Fatal(err)
	}
	if !st.Graph.IsEmpty() || st.Projs != nil {
		t.Fatal("clear incomplete")
	}
	if err := st.Apply(Event{Kind: "bogus"}); err == nil {
		t.Fatal("bogus event should fail")
	}
}

func TestExtractQueriesRejectsEmptyGo(t *testing.T) {
	tr := &Trace{User: "u", Events: []Event{{AtSeconds: 1, Kind: EvGo}}}
	if _, err := ExtractQueries(tr); err == nil {
		t.Fatal("GO on empty canvas should fail")
	}
}

func TestFormulationDurationUsesFirstEdit(t *testing.T) {
	sel := FromSelection(qgraph.Selection{Rel: "r", Col: "c", Op: tuple.CmpGT, Const: tuple.NewInt(1)})
	tr := &Trace{User: "u", Events: []Event{
		{AtSeconds: 10, Kind: EvAddSelection, Sel: &sel},
		{AtSeconds: 25, Kind: EvGo},
		{AtSeconds: 40, Kind: EvAddRelation, Rel: "s"},
		{AtSeconds: 49, Kind: EvGo},
	}}
	qs, err := ExtractQueries(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 2 {
		t.Fatalf("%d queries", len(qs))
	}
	if math.Abs(qs[0].FormulationSeconds()-15) > 1e-9 {
		t.Fatalf("q0 formulation %v, want 15", qs[0].FormulationSeconds())
	}
	if math.Abs(qs[1].FormulationSeconds()-9) > 1e-9 {
		t.Fatalf("q1 formulation %v, want 9", qs[1].FormulationSeconds())
	}
}

// TestChurnAppearsInTraces counts, under the default calibration, the
// formulations in which a selection is added and removed again before GO —
// parts that never reach a final query, the uncertainty speculation must
// handle. Only the churn step emits that pair: a persistence drop removes a
// selection of the previous final query, which no edit of the current
// formulation added.
func TestChurnAppearsInTraces(t *testing.T) {
	traces, err := GenerateCorpus(testVocabulary(), 15, 7)
	if err != nil {
		t.Fatal(err)
	}
	churned, queries := 0, 0
	for _, tr := range traces {
		added := map[string]bool{}
		hit := false
		for _, e := range tr.Events {
			switch e.Kind {
			case EvAddSelection, EvRemoveSelection:
				s, err := e.Sel.ToSelection()
				if err != nil {
					t.Fatal(err)
				}
				if e.Kind == EvAddSelection {
					added[s.Key()] = true
				} else if added[s.Key()] {
					hit = true
				}
			case EvGo:
				queries++
				if hit {
					churned++
				}
				added, hit = map[string]bool{}, false
			}
		}
	}
	// The calibration churns 22 % of formulations (136 of 631 here; a churn
	// step that finds no fresh selection emits nothing). The bounds are
	// literals, not churnProb, so a calibration that stops churning fails.
	if share := float64(churned) / float64(queries); share < 0.1 || share > 0.33 {
		t.Fatalf("%d of %d formulations churn a selection (%.3f), want between 0.1 and 0.33", churned, queries, share)
	}
}
