package tuple

import (
	"fmt"
	"strings"
)

// Column describes one attribute of a schema.
type Column struct {
	Name string
	Kind Kind
}

// Schema is an ordered list of columns. Column names are unqualified at the
// storage layer; the planner qualifies them with relation aliases.
type Schema struct {
	Columns []Column
	byName  map[string]int
	// kinds[i] is Columns[i].Kind: what the row codec walks, a byte a column
	// where a Column is 24. Up to 40 columns it lives in narrow, inside the
	// schema's own allocation (the planner builds a schema per candidate join).
	kinds  []Kind
	narrow [40]Kind
}

// NewSchema builds a schema from the given columns. Duplicate column names
// panic: schemas are engine-constructed, so a duplicate is a programming bug.
func NewSchema(cols ...Column) *Schema {
	s := &Schema{Columns: cols, byName: make(map[string]int, len(cols))}
	if len(cols) <= len(s.narrow) {
		s.kinds = s.narrow[:len(cols)]
	} else {
		s.kinds = make([]Kind, len(cols))
	}
	for i, c := range cols {
		s.kinds[i] = c.Kind
		if _, dup := s.byName[c.Name]; dup {
			// Programmer invariant: schemas are built from catalog
			// definitions and planner projections, which dedupe columns.
			panic("tuple: duplicate column " + c.Name)
		}
		s.byName[c.Name] = i
	}
	return s
}

// Len reports the number of columns.
func (s *Schema) Len() int { return len(s.Columns) }

// Ordinal resolves a column name to its position, or −1 if absent.
func (s *Schema) Ordinal(name string) int {
	if i, ok := s.byName[name]; ok {
		return i
	}
	return -1
}

// MustOrdinal resolves a column name or panics. For engine-internal lookups
// that have already been validated by the planner.
func (s *Schema) MustOrdinal(name string) int {
	i := s.Ordinal(name)
	if i < 0 {
		// invariant: Must-callers pass names the planner already bound
		// against this schema; unvalidated lookups use Ordinal instead.
		panic("tuple: unknown column " + name)
	}
	return i
}

// Concat returns the schema of a join output: s's columns followed by o's.
// Name collisions are resolved by the caller (the planner prefixes with
// relation aliases before concatenating).
func (s *Schema) Concat(o *Schema) *Schema {
	cols := make([]Column, 0, s.Len()+o.Len())
	cols = append(cols, s.Columns...)
	cols = append(cols, o.Columns...)
	return NewSchema(cols...)
}

// Rename returns a schema with every column name passed through f.
func (s *Schema) Rename(f func(string) string) *Schema {
	cols := make([]Column, s.Len())
	for i, c := range s.Columns {
		cols[i] = Column{Name: f(c.Name), Kind: c.Kind}
	}
	return NewSchema(cols...)
}

// String renders the schema as "(a int, b string, …)".
func (s *Schema) String() string {
	parts := make([]string, s.Len())
	for i, c := range s.Columns {
		parts[i] = c.Name + " " + c.Kind.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Validate checks that row r conforms to the schema (arity and kinds).
func (s *Schema) Validate(r Row) error {
	if len(r) != s.Len() {
		return fmt.Errorf("tuple: row arity %d, schema arity %d", len(r), s.Len())
	}
	for i, v := range r {
		if v.Kind != s.kinds[i] {
			return fmt.Errorf("tuple: column %q wants %v, row has %v",
				s.Columns[i].Name, s.kinds[i], v.Kind)
		}
	}
	return nil
}
