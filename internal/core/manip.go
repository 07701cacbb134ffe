package core

import (
	"fmt"
	"strings"

	"specdb/internal/qgraph"
	"specdb/internal/sim"
)

// ManipKind enumerates the operation families of Section 3.2.
type ManipKind uint8

// Manipulation kinds, in the paper's order of increasing cost, potential
// impact, and specificity: data staging, histogram creation, index creation,
// query materialization / query rewriting (the last two differ only in
// whether the optimizer is forced to use the result).
const (
	ManipNull ManipKind = iota
	ManipStage
	ManipHistogram
	ManipIndex
	ManipMaterialize
	// ManipPredictFinal executes a complete predicted final query ahead of GO
	// (DESIGN.md §14). It is never enumerated from the partial query — the
	// Speculator injects candidates from the Predictor's top-k — and its
	// result is a cached answer keyed by FormKey, not a catalog object.
	ManipPredictFinal
)

// String names the kind.
func (k ManipKind) String() string {
	switch k {
	case ManipNull:
		return "null"
	case ManipStage:
		return "stage"
	case ManipHistogram:
		return "histogram"
	case ManipIndex:
		return "index"
	case ManipMaterialize:
		return "materialize"
	case ManipPredictFinal:
		return "predict_final"
	default:
		return "?"
	}
}

// OpSet selects which manipulation families the Speculator may issue.
type OpSet struct {
	Materialize bool
	Index       bool
	Histogram   bool
	Stage       bool
}

// OpsMaterializeOnly is the paper's main configuration: Section 3.2 verifies
// experimentally that materialization/rewriting dominate, and the evaluation
// uses them exclusively.
func OpsMaterializeOnly() OpSet { return OpSet{Materialize: true} }

// Manipulation is one alternative the Speculator can issue.
type Manipulation struct {
	Kind ManipKind
	// Graph is the materialized sub-query (ManipMaterialize), or the
	// sub-query whose survival probability gates the benefit (index,
	// histogram, staging use the selection edge / relation sub-graph).
	Graph *qgraph.Graph
	// Rel/Col locate index, histogram, and staging targets.
	Rel, Col string

	// Projs carries a predicted final query's projection list
	// (ManipPredictFinal only); with Graph it forms the FormKey identity.
	Projs []string

	// Scoring outputs, filled by the cost model:
	// EstDuration is the predicted execution time of the manipulation.
	EstDuration sim.Duration
	// Benefit is Cost⊆(m∅) − Cost⊆(m) ≥ 0: the expected saving on future
	// query execution (already weighted by f⊆, reuse, and completion risk).
	Benefit sim.Duration
	// EstPages is the manipulation's estimated *retained* buffer-pool
	// footprint (result pages for a materialization, tree pages for an
	// index, sticky pages for staging). The worker gate (admitExtra) checks it
	// against the pool's headroom before admitting concurrent work, so
	// background jobs cannot crowd out a foreground query's working set.
	EstPages int
}

// Key identifies the manipulation for dedup against running/completed work.
func (m Manipulation) Key() string {
	switch m.Kind {
	case ManipMaterialize:
		return m.Graph.PrefixedKey("mat|")
	case ManipIndex:
		return "idx|" + m.Rel + "." + m.Col
	case ManipHistogram:
		return "hist|" + m.Rel + "." + m.Col
	case ManipStage:
		return "stage|" + m.Rel
	case ManipPredictFinal:
		return "pred|" + FormKey(m.Graph, m.Projs)
	default:
		return "null"
	}
}

// graphKey is m.Graph's key as it sits inside manipKey, m's Key: "" for a
// kind whose key does not hold it.
func (m *Manipulation) graphKey(manipKey string) string {
	if m.Kind == ManipMaterialize {
		return strings.TrimPrefix(manipKey, "mat|")
	}
	return ""
}

// String renders the manipulation for logs.
func (m Manipulation) String() string {
	switch m.Kind {
	case ManipMaterialize:
		return fmt.Sprintf("materialize %v", m.Graph)
	case ManipIndex:
		return fmt.Sprintf("create index on %s.%s", m.Rel, m.Col)
	case ManipHistogram:
		return fmt.Sprintf("create histogram on %s.%s", m.Rel, m.Col)
	case ManipStage:
		return fmt.Sprintf("stage %s", m.Rel)
	case ManipPredictFinal:
		return fmt.Sprintf("predict final %v", m.Graph)
	default:
		return "null manipulation"
	}
}

// EnumerateManipulations generates the manipulation space M for the current
// partial query, per Section 3.5: materializations of individual selection
// edges and of individual join edges enhanced with all attached selections —
// never arbitrary sub-queries. selectionsOnly restricts to selection
// materializations (the Section 6.3 multi-user strategy). Other families are
// gated by ops. The caller filters out work already running or completed.
//
// The sub-graphs reuse the part keys partial holds, and the families that
// target one selection share its sub-graph (graphs are never mutated once
// enumerated): a walk pays one allocation per selection and at most three
// per join.
func EnumerateManipulations(partial *qgraph.Graph, ops OpSet, selectionsOnly bool) []Manipulation {
	sels, joins := partial.Selections(), partial.Joins()
	n := 0
	if ops.Materialize {
		n += len(sels)
		if !selectionsOnly {
			n += len(joins)
		}
	}
	if ops.Index {
		n += len(sels)
	}
	if ops.Histogram {
		n += len(sels)
	}
	if ops.Stage {
		n += partial.NumRelations()
	}
	out := make([]Manipulation, 0, n)
	var selSubs []*qgraph.Graph
	if ops.Materialize || ops.Index || ops.Histogram {
		selSubs = make([]*qgraph.Graph, len(sels))
		for i := range sels {
			selSubs[i] = partial.SelectionSubgraphAt(i)
		}
	}
	if ops.Materialize {
		for _, g := range selSubs {
			out = append(out, Manipulation{Kind: ManipMaterialize, Graph: g})
		}
		if !selectionsOnly {
			for i := range joins {
				out = append(out, Manipulation{Kind: ManipMaterialize, Graph: partial.JoinSubgraphAt(i)})
			}
		}
	}
	if ops.Index {
		for i, s := range sels {
			out = append(out, Manipulation{Kind: ManipIndex, Graph: selSubs[i], Rel: s.Rel, Col: s.Col})
		}
	}
	if ops.Histogram {
		for i, s := range sels {
			out = append(out, Manipulation{Kind: ManipHistogram, Graph: selSubs[i], Rel: s.Rel, Col: s.Col})
		}
	}
	if ops.Stage {
		for _, rel := range partial.Relations() {
			g := qgraph.New()
			g.AddRelation(rel)
			out = append(out, Manipulation{Kind: ManipStage, Graph: g, Rel: rel})
		}
	}
	return out
}
