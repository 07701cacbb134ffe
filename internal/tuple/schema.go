package tuple

import (
	"fmt"
	"math/bits"
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
func NewSchema(cols ...Column) *Schema { return newSchema(cols, false) }

// NewProjection builds the schema of a projection, which may name a column
// more than once (SELECT r.a, r.a): Ordinal resolves such a name to its first
// place.
func NewProjection(cols ...Column) *Schema { return newSchema(cols, true) }

func newSchema(cols []Column, repeats bool) *Schema {
	s := &Schema{Columns: cols, byName: make(map[string]int, len(cols))}
	if len(cols) <= len(s.narrow) {
		s.kinds = s.narrow[:len(cols)]
	} else {
		s.kinds = make([]Kind, len(cols))
	}
	for i, c := range cols {
		s.kinds[i] = c.Kind
		if _, dup := s.byName[c.Name]; dup {
			if repeats {
				continue
			}
			// Programmer invariant: schemas are built from catalog
			// definitions and from the concatenation of a join's two sides,
			// which the planner qualifies apart; only a projection repeats.
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
		if !v.Is(s.kinds[i]) {
			return fmt.Errorf("tuple: column %q wants %v, row has %v",
				s.Columns[i].Name, s.kinds[i], v.Kind())
		}
	}
	return nil
}

// ColSet is a set of a schema's column ordinals, bit i for column i: the
// columns of an operator's rows that something above it reads (DESIGN.md
// §15, "What a query decodes and copies"). It names the first 64 columns
// only: a set that would hold a later one is AllCols.
type ColSet uint64

// AllCols holds every column of any schema.
const AllCols = ^ColSet(0)

// ColsOf is the set of the given ordinals.
func ColsOf(ords ...int) ColSet {
	var c ColSet
	for _, o := range ords {
		c = c.With(o)
	}
	return c
}

// Has reports whether column i is in the set.
func (c ColSet) Has(i int) bool { return c == AllCols || i < 64 && c>>i&1 != 0 }

// With adds column i; a column past the 64th makes the set AllCols.
func (c ColSet) With(i int) ColSet {
	if i >= 64 {
		return AllCols
	}
	return c | 1<<i
}

// Over is the set as one over a schema of n columns: AllCols if it holds all
// of them, so that a reader of every column takes the whole-row paths.
func (c ColSet) Over(n int) ColSet {
	if c.Count(n) == n {
		return AllCols
	}
	return c
}

// Count is the number of columns in the set among a schema's first n.
func (c ColSet) Count(n int) int {
	if c == AllCols {
		return n
	}
	return bits.OnesCount64(uint64(c) & (1<<n - 1))
}

// Rank is the number of columns in the set before column i: where column i
// sits in a row that keeps only the set's columns, back to back.
func (c ColSet) Rank(i int) int {
	if c == AllCols {
		return i
	}
	return bits.OnesCount64(uint64(c) & (1<<i - 1))
}

// Split divides the set over a join's output, whose first nl columns are its
// left child's, into the sets over the two children.
func (c ColSet) Split(nl int) (left, right ColSet) {
	if c == AllCols {
		return AllCols, AllCols
	}
	return c & (1<<nl - 1), c >> nl
}

// bound is one past the set's last column of a schema of n columns: what a
// decode of the set must walk.
func (c ColSet) bound(n int) int {
	if c == AllCols {
		return n
	}
	return min(n, bits.Len64(uint64(c)))
}
