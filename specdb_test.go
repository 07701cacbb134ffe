package specdb

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func openTiny(t *testing.T) *DB {
	t.Helper()
	db := Open(Options{BufferPoolPages: 64})
	// The named scales are heavyweight for unit tests; exercise the public
	// API against the smallest one.
	if err := db.LoadTPCH("100MB", 42); err != nil {
		t.Fatal(err)
	}
	return db
}

// The loaded DB is shared across API tests (read-only workload plus
// session-scoped speculative tables that are cleaned up by Close).
var sharedDB *DB

func getDB(t *testing.T) *DB {
	t.Helper()
	if sharedDB == nil {
		sharedDB = openTiny(t)
	}
	if err := sharedDB.ColdStart(); err != nil {
		t.Fatal(err)
	}
	return sharedDB
}

func TestOpenAndExec(t *testing.T) {
	db := getDB(t)
	if len(db.Tables()) != 6 {
		t.Fatalf("tables %v", db.Tables())
	}
	res, err := db.Exec("SELECT * FROM lineitem WHERE lineitem.l_quantity = 1")
	if err != nil {
		t.Fatal(err)
	}
	if res.RowCount == 0 || int64(len(res.Rows)) != res.RowCount {
		t.Fatalf("result %d rows (%d materialized)", res.RowCount, len(res.Rows))
	}
	if res.Duration <= 0 {
		t.Fatalf("duration %v", res.Duration)
	}
	if len(res.Columns) == 0 || !strings.Contains(res.Columns[3], "l_") {
		t.Fatalf("columns %v", res.Columns)
	}
	if _, err := db.Exec("SELEKT"); err == nil {
		t.Fatal("bad SQL should fail")
	}
}

func TestExecExplainAndDDL(t *testing.T) {
	db := getDB(t)
	res, err := db.Exec("EXPLAIN SELECT * FROM orders WHERE orders.o_orderpriority = 1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Plan, "orders") {
		t.Fatalf("plan %q", res.Plan)
	}
	if _, err := db.Exec("SELECT * FROM supplier WHERE supplier.s_acctbal > 9000 INTO rich_suppliers"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("DROP TABLE rich_suppliers"); err != nil {
		t.Fatal(err)
	}
}

func TestSpeculativeSessionEndToEnd(t *testing.T) {
	db := getDB(t)

	// Baseline first, on a cold pool and with no speculative views around.
	plain, err := db.Exec("SELECT * FROM lineitem WHERE lineitem.l_quantity = 1")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.ColdStart(); err != nil {
		t.Fatal(err)
	}

	s := db.NewSession(SessionConfig{})
	defer s.Close()

	// The paper's Section 1 flow: place a selective predicate, think, GO.
	if err := s.AddSelection("lineitem", "l_quantity", "=", 1); err != nil {
		t.Fatal(err)
	}
	s.Think(60 * time.Second) // plenty of think-time: the manipulation completes
	if st := s.Stats(); st.Completed == 0 {
		t.Fatalf("no manipulation completed during think-time: %+v", st)
	}
	res, err := s.Go()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Plan, "spec") {
		t.Fatalf("final query not rewritten:\n%s", res.Plan)
	}
	// The answer must match plain execution, and must be faster: the
	// rewrite scans a small materialization instead of lineitem.
	if res.RowCount != plain.RowCount {
		t.Fatalf("speculative answer %d rows, plain %d", res.RowCount, plain.RowCount)
	}
	if res.Duration >= plain.Duration {
		t.Fatalf("speculative %v not faster than plain %v", res.Duration, plain.Duration)
	}
}

func TestSessionEditsAndJoins(t *testing.T) {
	db := getDB(t)
	s := db.NewSession(SessionConfig{})
	defer s.Close()

	if err := s.AddJoin("orders", "o_orderkey", "lineitem", "l_orderkey"); err != nil {
		t.Fatal(err)
	}
	if err := s.AddSelection("orders", "o_orderpriority", "=", 1); err != nil {
		t.Fatal(err)
	}
	if err := s.SetProjections("lineitem.l_quantity"); err != nil {
		t.Fatal(err)
	}
	s.Think(90 * time.Second)
	res, err := s.Go()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 1 || res.Columns[0] != "lineitem.l_quantity" {
		t.Fatalf("projection ignored: %v", res.Columns)
	}
	if res.RowCount == 0 {
		t.Fatal("empty join result")
	}
	// Editing continues after GO; removing the join must be accepted.
	if err := s.RemoveJoin("orders", "o_orderkey", "lineitem", "l_orderkey"); err != nil {
		t.Fatal(err)
	}
	if err := s.RemoveRelation("orders"); err != nil {
		t.Fatal(err)
	}
	if err := s.Clear(); err != nil {
		t.Fatal(err)
	}
}

func TestSessionValidation(t *testing.T) {
	db := getDB(t)
	s := db.NewSession(SessionConfig{})
	defer s.Close()
	if err := s.AddSelection("lineitem", "l_quantity", "LIKE", 1); err == nil {
		t.Fatal("bad operator should fail")
	}
	if err := s.AddSelection("lineitem", "l_quantity", "=", struct{}{}); err == nil {
		t.Fatal("bad constant type should fail")
	}
	if _, err := s.Go(); err == nil {
		t.Fatal("GO on empty canvas should fail")
	}
}

func TestSessionClock(t *testing.T) {
	db := getDB(t)
	s := db.NewSession(SessionConfig{})
	defer s.Close()
	if s.Now() != 0 {
		t.Fatal("fresh session not at time zero")
	}
	s.Think(5 * time.Second)
	if s.Now() != 5*time.Second {
		t.Fatalf("Now = %v", s.Now())
	}
}

func TestSessionRecordingAndReplay(t *testing.T) {
	db := getDB(t)
	s := db.NewSession(SessionConfig{})
	if err := s.AddSelection("orders", "o_orderpriority", "=", 1); err != nil {
		t.Fatal(err)
	}
	s.Think(10 * time.Second)
	if err := s.AddJoin("orders", "o_orderkey", "lineitem", "l_orderkey"); err != nil {
		t.Fatal(err)
	}
	s.Think(15 * time.Second)
	if _, err := s.Go(); err != nil {
		t.Fatal(err)
	}
	data, err := s.TraceJSON("tester")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	sum, err := db.ReplayTrace(data)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Queries != 1 || len(sum.PerQuery) != 1 {
		t.Fatalf("summary %+v", sum)
	}
	if sum.NormalSeconds <= 0 || sum.SpeculativeSeconds <= 0 {
		t.Fatalf("summary durations %+v", sum)
	}
	if sum.ImprovementPct <= 0 {
		t.Fatalf("recorded session should improve under replay: %+v", sum)
	}
}

func TestGenerateTraces(t *testing.T) {
	docs, err := GenerateTraces(2, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 2 {
		t.Fatalf("%d traces", len(docs))
	}
	db := getDB(t)
	sum, err := db.ReplayTrace(docs[0])
	if err != nil {
		t.Fatal(err)
	}
	if sum.Queries < 30 {
		t.Fatalf("generated trace too short: %d queries", sum.Queries)
	}
}

// TestObservabilitySurface exercises the public metrics API: pool stats,
// text/JSON metric dumps, and EXPLAIN ANALYZE through DB.Exec.
func TestObservabilitySurface(t *testing.T) {
	db := getDB(t)
	if _, err := db.Exec("SELECT * FROM orders WHERE orders.o_totalprice > 1000"); err != nil {
		t.Fatal(err)
	}

	ps := db.PoolStats()
	if ps.Fetches == 0 || ps.Hits+ps.Misses != ps.Fetches {
		t.Fatalf("pool stats incoherent: %+v", ps)
	}
	if ps.HitRatio < 0 || ps.HitRatio > 1 {
		t.Fatalf("hit ratio out of range: %v", ps.HitRatio)
	}

	text := db.MetricsText()
	for _, want := range []string{"buffer.pool.fetches", "engine.statements", "catalog.tables"} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics dump missing %q:\n%s", want, text)
		}
	}
	raw, err := db.MetricsJSON()
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(raw, &parsed); err != nil {
		t.Fatalf("metrics JSON does not parse: %v", err)
	}
	if parsed.Counters["engine.statements"] == 0 {
		t.Fatal("engine.statements missing from JSON dump")
	}

	res, err := db.Exec("EXPLAIN ANALYZE SELECT * FROM orders WHERE orders.o_totalprice > 1000")
	if err != nil {
		t.Fatal(err)
	}
	if res.Analyzed == "" || !strings.Contains(res.Analyzed, "(actual rows=") {
		t.Fatalf("EXPLAIN ANALYZE rendering: %q", res.Analyzed)
	}
}
