package sql

import (
	"fmt"
	"strings"

	"specdb/internal/tuple"
)

// Statement is any parsed SQL statement.
type Statement interface{ stmt() }

// ColRef names a column, optionally qualified by a relation.
type ColRef struct {
	Rel string // "" if unqualified
	Col string
}

// String renders the reference in SQL form.
func (c ColRef) String() string {
	if c.Rel == "" {
		return c.Col
	}
	return c.Rel + "." + c.Col
}

// Condition is one conjunct of a WHERE clause: either a selection
// (column op constant) or an equi-join (column = column).
type Condition struct {
	Left ColRef
	Op   tuple.CmpOp
	// Exactly one of RightCol / RightConst is set.
	RightCol   *ColRef
	RightConst *tuple.Value
}

// IsJoin reports whether the condition compares two columns.
func (c Condition) IsJoin() bool { return c.RightCol != nil }

// String renders the condition in SQL form.
func (c Condition) String() string {
	if c.IsJoin() {
		return fmt.Sprintf("%s %s %s", c.Left, c.Op, *c.RightCol)
	}
	return fmt.Sprintf("%s %s %s", c.Left, c.Op, renderConst(*c.RightConst))
}

// renderConst formats a constant as a SQL literal the parser accepts back:
// string values are quoted with embedded quotes doubled; a float that would
// print indistinguishably from an int (no '.' or exponent) gets a ".0" marker
// so it re-parses as a float; everything else uses the value's own rendering
// (date(N) is a literal form the parser recognizes).
func renderConst(v tuple.Value) string {
	switch v.Kind() {
	case tuple.KindString:
		return "'" + strings.ReplaceAll(v.Str(), "'", "''") + "'"
	case tuple.KindFloat:
		s := v.String()
		if !strings.ContainsAny(s, ".eE") {
			s += ".0"
		}
		return s
	default:
		return v.String()
	}
}

// SelectStmt is a conjunctive query, optionally materializing INTO a table.
type SelectStmt struct {
	Projections []ColRef // empty means SELECT *
	From        []string
	Where       []Condition
	Into        string // "" for a plain query
}

func (*SelectStmt) stmt() {}

// String renders the statement back to SQL.
func (s *SelectStmt) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if len(s.Projections) == 0 {
		b.WriteString("*")
	} else {
		parts := make([]string, len(s.Projections))
		for i, p := range s.Projections {
			parts[i] = p.String()
		}
		b.WriteString(strings.Join(parts, ", "))
	}
	b.WriteString(" FROM ")
	b.WriteString(strings.Join(s.From, ", "))
	if len(s.Where) > 0 {
		b.WriteString(" WHERE ")
		parts := make([]string, len(s.Where))
		for i, c := range s.Where {
			parts[i] = c.String()
		}
		b.WriteString(strings.Join(parts, " AND "))
	}
	if s.Into != "" {
		b.WriteString(" INTO ")
		b.WriteString(s.Into)
	}
	return b.String()
}

// CreateIndexStmt is CREATE INDEX ON table(col).
type CreateIndexStmt struct {
	Table  string
	Column string
}

func (*CreateIndexStmt) stmt() {}

// CreateHistogramStmt is CREATE HISTOGRAM ON table(col).
type CreateHistogramStmt struct {
	Table  string
	Column string
}

func (*CreateHistogramStmt) stmt() {}

// DropTableStmt is DROP TABLE name.
type DropTableStmt struct {
	Name string
}

func (*DropTableStmt) stmt() {}

// ExplainStmt wraps a query whose plan should be printed. With Analyze set
// (EXPLAIN ANALYZE) the query is additionally executed with instrumented
// operators and the rendered plan carries per-node actuals.
type ExplainStmt struct {
	Query   *SelectStmt
	Analyze bool
}

func (*ExplainStmt) stmt() {}
