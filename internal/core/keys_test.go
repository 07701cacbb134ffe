package core

import (
	"path/filepath"
	"strings"
	"testing"

	"specdb/internal/golden"
	"specdb/internal/tpch"
	"specdb/internal/trace"
)

// TestCorpusKeysGolden pins the bytes of every key the bench corpus (3
// users, corpus seed 7) produces: for each distinct canvas graph, in the
// order the traces first reach it, the graph's key, each selection's and
// join's key, and the key of every manipulation EnumerateManipulations
// yields with every family on; for each GO, the predicted-final key of the
// final with its projections. The learner, a durable profile and the ledger
// store these keys, so a change to how one is built must leave every byte
// (testdata/corpus_keys.golden).
func TestCorpusKeysGolden(t *testing.T) {
	traces, err := trace.GenerateCorpus(tpch.Vocabulary(), 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	all := OpSet{Materialize: true, Index: true, Histogram: true, Stage: true}
	seen := make(map[string]bool)
	var b strings.Builder
	for _, tr := range traces {
		st := trace.NewState()
		for _, e := range tr.Events {
			if err := st.Apply(e); err != nil {
				t.Fatal(err)
			}
			if e.Kind == trace.EvGo {
				m := Manipulation{Kind: ManipPredictFinal, Graph: st.Graph, Projs: st.Projs}
				b.WriteString("P " + m.Key() + "\n")
			}
			g := st.Graph
			key := g.Key()
			if seen[key] {
				continue
			}
			seen[key] = true
			b.WriteString("G " + key + "\n")
			for _, s := range g.Selections() {
				b.WriteString("  S " + s.Key() + "\n")
			}
			for _, j := range g.Joins() {
				b.WriteString("  J " + j.Key() + "\n")
			}
			for _, m := range EnumerateManipulations(g, all, false) {
				b.WriteString("  M " + m.Key() + "\n")
			}
		}
	}
	golden.Check(t, filepath.Join("testdata", "corpus_keys.golden"), b.String())
}
