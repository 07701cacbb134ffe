package plan

import "specdb/internal/tuple"

// The optimizer's estimates (search in optimizer.go) mirror what the executor
// actually charges (per-page I/O on buffer misses, per-tuple CPU per
// operator), so estimates track actual simulated durations — up to
// estimation error, which is deliberate: mis-estimates are the paper's source
// of speculation penalties (Section 6.1).

// rowWidth estimates a row's encoded width in bytes from its schema. A plan
// node carries its output's width (Node.width), so spill costing sums small
// integers instead of building a joined schema for every candidate.
func rowWidth(s *tuple.Schema) int {
	b := 0
	for _, c := range s.Columns {
		switch c.Kind {
		case tuple.KindFloat:
			b += 8
		case tuple.KindString:
			b += 14
		default:
			b += 4
		}
	}
	return b
}

// storedName translates a column name qualified as a plan names it to the
// name a table read under qualifier stores it by: "qualifier.col" is "col",
// and a view (qualifier "") stores its columns qualified.
func storedName(qualifier, qualified string) string {
	if qualifier == "" || len(qualified) <= len(qualifier) || qualified[len(qualifier)] != '.' || qualified[:len(qualifier)] != qualifier {
		return qualified
	}
	return qualified[len(qualifier)+1:]
}
