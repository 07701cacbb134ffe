package sql

import (
	"strings"
	"testing"

	"specdb/internal/tuple"
)

func TestParsePaperIntroQuery(t *testing.T) {
	// The running example from Section 1 of the paper.
	stmt, err := ParseSelect("SELECT name FROM employee WHERE age < 30")
	if err != nil {
		t.Fatal(err)
	}
	if len(stmt.Projections) != 1 || stmt.Projections[0].Col != "name" {
		t.Fatalf("projections %v", stmt.Projections)
	}
	if len(stmt.From) != 1 || stmt.From[0] != "employee" {
		t.Fatalf("from %v", stmt.From)
	}
	if len(stmt.Where) != 1 {
		t.Fatalf("where %v", stmt.Where)
	}
	c := stmt.Where[0]
	if c.IsJoin() || c.Left.Col != "age" || c.Op != tuple.CmpLT || c.RightConst.Int() != 30 {
		t.Fatalf("condition %v", c)
	}
}

func TestParsePaperMaterialization(t *testing.T) {
	// The speculative materialization from Section 1, INTO TABLE form.
	stmt, err := ParseSelect("SELECT * FROM employee WHERE age < 30 INTO TABLE young_employee")
	if err != nil {
		t.Fatal(err)
	}
	if len(stmt.Projections) != 0 {
		t.Fatal("SELECT * should have empty projections")
	}
	if stmt.Into != "young_employee" {
		t.Fatalf("into %q", stmt.Into)
	}
	// And the bare INTO form.
	stmt2, err := ParseSelect("SELECT * FROM employee INTO t2")
	if err != nil {
		t.Fatal(err)
	}
	if stmt2.Into != "t2" {
		t.Fatalf("into %q", stmt2.Into)
	}
}

func TestParseFigure2Query(t *testing.T) {
	stmt, err := ParseSelect(`
		SELECT * FROM R, S, W
		WHERE R.a = S.a AND S.b = W.b AND R.c > 10 AND W.d < 2000`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmt.From) != 3 {
		t.Fatalf("from %v", stmt.From)
	}
	if len(stmt.Where) != 4 {
		t.Fatalf("where %v", stmt.Where)
	}
	joins, sels := 0, 0
	for _, c := range stmt.Where {
		if c.IsJoin() {
			joins++
		} else {
			sels++
		}
	}
	if joins != 2 || sels != 2 {
		t.Fatalf("joins=%d sels=%d", joins, sels)
	}
	if stmt.Where[0].Left.Rel != "R" || stmt.Where[0].RightCol.Rel != "S" {
		t.Fatalf("first join %v", stmt.Where[0])
	}
}

func TestParseConstants(t *testing.T) {
	stmt, err := ParseSelect(`SELECT * FROM t WHERE a = -5 AND b >= 2.75 AND c = 'it''s' AND d <> 'x'`)
	if err != nil {
		t.Fatal(err)
	}
	w := stmt.Where
	if w[0].RightConst.Kind() != tuple.KindInt || w[0].RightConst.Int() != -5 {
		t.Fatalf("int const %v", w[0].RightConst)
	}
	if w[1].RightConst.Kind() != tuple.KindFloat || w[1].RightConst.Float() != 2.75 {
		t.Fatalf("float const %v", w[1].RightConst)
	}
	if w[2].RightConst.Str() != "it's" {
		t.Fatalf("escaped string %q", w[2].RightConst.Str())
	}
	if w[3].Op != tuple.CmpNE {
		t.Fatalf("op %v", w[3].Op)
	}
}

func TestParseOperators(t *testing.T) {
	for text, want := range map[string]tuple.CmpOp{
		"=": tuple.CmpEQ, "<": tuple.CmpLT, "<=": tuple.CmpLE,
		">": tuple.CmpGT, ">=": tuple.CmpGE, "<>": tuple.CmpNE, "!=": tuple.CmpNE,
	} {
		stmt, err := ParseSelect("SELECT * FROM t WHERE a " + text + " 1")
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		if stmt.Where[0].Op != want {
			t.Fatalf("%s parsed as %v", text, stmt.Where[0].Op)
		}
	}
}

func TestParseDDL(t *testing.T) {
	stmt, err := Parse("CREATE INDEX ON lineitem(l_price)")
	if err != nil {
		t.Fatal(err)
	}
	ci, ok := stmt.(*CreateIndexStmt)
	if !ok || ci.Table != "lineitem" || ci.Column != "l_price" {
		t.Fatalf("create index: %+v", stmt)
	}

	stmt, err = Parse("CREATE HISTOGRAM ON orders(o_total)")
	if err != nil {
		t.Fatal(err)
	}
	ch, ok := stmt.(*CreateHistogramStmt)
	if !ok || ch.Table != "orders" || ch.Column != "o_total" {
		t.Fatalf("create histogram: %+v", stmt)
	}

	stmt, err = Parse("DROP TABLE spec_m1")
	if err != nil {
		t.Fatal(err)
	}
	dt, ok := stmt.(*DropTableStmt)
	if !ok || dt.Name != "spec_m1" {
		t.Fatalf("drop: %+v", stmt)
	}

	stmt, err = Parse("EXPLAIN SELECT * FROM t WHERE a = 1")
	if err != nil {
		t.Fatal(err)
	}
	ex, ok := stmt.(*ExplainStmt)
	if !ok || len(ex.Query.Where) != 1 {
		t.Fatalf("explain: %+v", stmt)
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	if _, err := ParseSelect("select * from t where a = 1 and b = 2"); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseSelect("SeLeCt * FrOm t"); err != nil {
		t.Fatal(err)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT * FROM",
		"SELECT * FROM t WHERE",
		"SELECT * FROM t WHERE a",
		"SELECT * FROM t WHERE a =",
		"SELECT * FROM t WHERE a < b.c",        // non-equality join
		"SELECT * FROM t WHERE a = 1 OR b = 2", // disjunction not in dialect
		"SELECT * FROM t trailing",
		"FROB TABLE x",
		"CREATE VIEW v",
		"DROP x",
		"SELECT * FROM t WHERE a = 'unterminated",
		"SELECT * FROM t WHERE a @ 1",
		"SELECT a. FROM t",
		"SELECT * FROM t INTO",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestParseNonSelectViaParseSelect(t *testing.T) {
	if _, err := ParseSelect("DROP TABLE t"); err == nil {
		t.Fatal("ParseSelect should reject DDL")
	}
}

func TestStringRoundTrip(t *testing.T) {
	srcs := []string{
		"SELECT name FROM employee WHERE age < 30",
		"SELECT * FROM R, S WHERE R.a = S.a AND R.c > 10 INTO t1",
		"SELECT a, b.c FROM b, d WHERE b.x = d.y AND a >= 2.5 AND name = 'bob'",
	}
	for _, src := range srcs {
		stmt, err := ParseSelect(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		re, err := ParseSelect(stmt.String())
		if err != nil {
			t.Fatalf("re-parse of %q: %v", stmt.String(), err)
		}
		if re.String() != stmt.String() {
			t.Fatalf("unstable round-trip:\n%s\n%s", stmt.String(), re.String())
		}
	}
}

func TestQualifiedProjection(t *testing.T) {
	stmt, err := ParseSelect("SELECT R.a, b FROM R, S WHERE R.k = S.k")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.Projections[0].Rel != "R" || stmt.Projections[0].Col != "a" {
		t.Fatalf("qualified projection %v", stmt.Projections[0])
	}
	if stmt.Projections[1].Rel != "" || stmt.Projections[1].Col != "b" {
		t.Fatalf("unqualified projection %v", stmt.Projections[1])
	}
}

func TestConditionString(t *testing.T) {
	stmt, err := ParseSelect("SELECT * FROM R, S WHERE R.a = S.a AND R.c > 10")
	if err != nil {
		t.Fatal(err)
	}
	if got := stmt.Where[0].String(); got != "R.a = S.a" {
		t.Fatalf("join string %q", got)
	}
	if got := stmt.Where[1].String(); !strings.Contains(got, "R.c > 10") {
		t.Fatalf("selection string %q", got)
	}
}
