package engine

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"specdb/internal/fault"
	"specdb/internal/tuple"
)

// The crash-at-any-write recovery matrix (DESIGN.md §12): run a deterministic
// trace of mutating statements against a durable engine, then re-run it with
// a process kill injected at the c-th low-level file write — sweeping c across
// every write the uncrashed reference performs, alternating clean kills with
// torn final pages. After each crash the database is reopened (recovery
// replays the WAL to the last commit), the trace is resumed from the recovered
// statement sequence number, and the result must be indistinguishable from the
// reference: same catalog shape, same statistics, and identical answers to
// every probe query.

// crashTraceOp is one mutating statement; exactly one durable commit each, so
// Engine.AppliedSeq is the trace resume point.
type crashTraceOp struct {
	label string
	run   func(e *Engine) error
}

func intSchema(a, b string) *tuple.Schema {
	return tuple.NewSchema(
		tuple.Column{Name: a, Kind: tuple.KindInt},
		tuple.Column{Name: b, Kind: tuple.KindInt},
	)
}

func intRows(n int, gen func(i int) (int64, int64)) []tuple.Row {
	rows := make([]tuple.Row, n)
	for i := range rows {
		a, b := gen(i)
		rows[i] = tuple.Row{tuple.NewInt(a), tuple.NewInt(b)}
	}
	return rows
}

// crashTrace is the deterministic statement trace. It exercises every durable
// statement kind: table creation, bulk load, analyze, index and histogram
// builds and drops, SQL materialization (which also registers a view), and
// table drops.
func crashTrace() []crashTraceOp {
	return []crashTraceOp{
		{"create R", func(e *Engine) error {
			_, err := e.CreateTable("R", intSchema("a", "c"))
			return err
		}},
		{"load R", func(e *Engine) error {
			return e.InsertRows("R", intRows(120, func(i int) (int64, int64) {
				return int64(i % 40), int64(i % 17)
			}))
		}},
		{"analyze R", func(e *Engine) error { return e.Analyze("R", nil) }},
		{"create S", func(e *Engine) error {
			_, err := e.CreateTable("S", intSchema("a", "b"))
			return err
		}},
		{"load S", func(e *Engine) error {
			return e.InsertRows("S", intRows(90, func(i int) (int64, int64) {
				return int64(i % 40), int64(i % 13)
			}))
		}},
		{"analyze S", func(e *Engine) error { return e.Analyze("S", nil) }},
		{"index R.a", func(e *Engine) error { _, err := e.CreateIndex("R", "a", nil); return err }},
		{"hist S.b", func(e *Engine) error { _, err := e.CreateHistogram("S", "b", nil); return err }},
		{"materialize smallS", func(e *Engine) error {
			_, err := e.Exec("SELECT * FROM S WHERE S.b < 6 INTO TABLE smallS")
			return err
		}},
		{"analyze smallS", func(e *Engine) error { return e.Analyze("smallS", nil) }},
		{"index S.a", func(e *Engine) error { _, err := e.CreateIndex("S", "a", nil); return err }},
		{"drop index R.a", func(e *Engine) error { return e.DropIndex("R", "a") }},
		{"materialize rs", func(e *Engine) error {
			_, err := e.Exec("SELECT * FROM R, S WHERE R.a = S.a AND R.c < 9 INTO TABLE rs")
			return err
		}},
		{"drop smallS", func(e *Engine) error { return e.DropTable("smallS") }},
		{"hist R.c", func(e *Engine) error { _, err := e.CreateHistogram("R", "c", nil); return err }},
	}
}

// crashProbes are the queries the recovered database must answer identically.
// They only reference tables alive at the end of the full trace.
var crashProbes = []string{
	"SELECT * FROM R WHERE R.c < 8",
	"SELECT * FROM S WHERE S.b > 3",
	"SELECT * FROM R, S WHERE R.a = S.a AND S.b < 4",
	"SELECT * FROM rs",
}

func durableCrashConfig(path string, crash *fault.Crash, shards int) Config {
	return Config{
		BufferPoolPages: 64,
		// The matrix sweeps shards=1 and shards=4: eviction (and therefore
		// checkpoint flush) order depends on the shard layout, so recovery
		// must be exercised against both write landscapes.
		PoolShards: shards,
		Storage: StorageConfig{
			Path: path,
			// Small threshold so the sweep also crosses checkpoint writes
			// (data-page flushes, temp-WAL build, atomic rename).
			CheckpointBytes: 8 << 10,
			Crash:           crash,
		},
	}
}

// crashFingerprint renders everything observable that must survive recovery:
// catalog shape (tables, rows, indexes, stats presence, views) and the full
// result rows of every probe query, in execution order.
func crashFingerprint(e *Engine) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "applied_seq=%d\n", e.AppliedSeq())
	for _, name := range e.Catalog.TableNames() {
		t, err := e.Catalog.Table(name)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "table %s rows=%d pages=%d", name, t.Heap.NumRows(), len(t.Heap.PageIDs()))
		for _, idx := range t.IndexList() {
			fmt.Fprintf(&b, " idx=%s(h=%d,n=%d)", idx.Column, idx.Tree.Height(), idx.Tree.Len())
		}
		for _, c := range t.Schema.Columns {
			if cs := t.ColumnStats(c.Name); cs != nil {
				fmt.Fprintf(&b, " stats=%s(n=%d,d=%d,hist=%v)", c.Name, cs.Count, cs.Distinct, cs.Hist() != nil)
			}
		}
		b.WriteByte('\n')
	}
	for _, v := range e.Catalog.Views() {
		fmt.Fprintf(&b, "view %s forced=%v rels=%v\n", v.Name, v.Forced, v.Graph.Relations())
	}
	for _, q := range crashProbes {
		res, err := e.Exec(q)
		if err != nil {
			return "", fmt.Errorf("probe %q: %w", q, err)
		}
		fmt.Fprintf(&b, "probe %q rows=%d\n", q, res.RowCount)
		for _, row := range res.Rows {
			for _, v := range row {
				fmt.Fprintf(&b, " %d:%v", v.Kind(), v)
			}
			b.WriteByte('\n')
		}
	}
	return b.String(), nil
}

// runTrace applies ops until one fails (the injected crash surfacing) and
// reports how many succeeded.
func runTrace(e *Engine, ops []crashTraceOp) int {
	for i, op := range ops {
		if err := op.run(e); err != nil {
			return i
		}
	}
	return len(ops)
}

func TestCrashMatrixRecoversIdentically(t *testing.T) {
	for _, shards := range []int{1, 4} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			crashMatrixSweep(t, shards)
		})
	}
}

// crashMatrixSweep runs the full crash-at-any-write sweep against a pool with
// the given shard count. The reference (and its write count, the sweep
// domain) is computed per shard layout: eviction order differs across
// layouts, so the checkpoint write landscape does too.
func crashMatrixSweep(t *testing.T, shards int) {
	dir := t.TempDir()
	ops := crashTrace()

	// Reference: the uncrashed run. Its fingerprint is the ground truth and
	// its write count is the sweep domain.
	ref, err := Open(durableCrashConfig(filepath.Join(dir, "ref.pages"), nil, shards))
	if err != nil {
		t.Fatal(err)
	}
	if n := runTrace(ref, ops); n != len(ops) {
		t.Fatalf("reference trace stopped at op %d (%s)", n, ops[n].label)
	}
	want, err := crashFingerprint(ref)
	if err != nil {
		t.Fatal(err)
	}
	totalWrites := ref.FileDisk().FileWrites()
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}
	if totalWrites < 20 {
		t.Fatalf("reference performed only %d file writes; trace too small for a meaningful sweep", totalWrites)
	}

	// Sweep: crash at every k-th write, k sized to ~40 crash points so the
	// matrix stays fast under -race while still crossing every write class
	// (superblock, WAL header, record appends, checkpoint flushes, renames).
	step := totalWrites / 40
	if step < 1 {
		step = 1
	}
	point := 0
	for c := int64(1); c <= totalWrites; c += step {
		c := c
		torn := point%2 == 1 // alternate clean kill / torn final page
		point++
		t.Run(fmt.Sprintf("crash_at_write_%d_torn_%v", c, torn), func(t *testing.T) {
			path := filepath.Join(dir, fmt.Sprintf("crash_%d.pages", c))
			crash := fault.NewCrash(c, torn)
			eng, err := Open(durableCrashConfig(path, crash, shards))
			if err == nil {
				runTrace(eng, ops) // stops when the crash surfaces
				_ = eng.Close()    // dead backend; errors expected
			}
			if !crash.Dead() && err == nil {
				t.Fatalf("crash at write %d never fired (ran %d writes)", c, crash.Writes())
			}

			// Reopen without the gate: recovery must land on the last commit.
			re, err := Open(durableCrashConfig(path, nil, shards))
			if err != nil {
				t.Fatalf("recovery open: %v", err)
			}
			defer func() {
				if err := re.Close(); err != nil {
					t.Errorf("close recovered engine: %v", err)
				}
			}()
			seq := re.AppliedSeq()
			if seq < 0 || seq > int64(len(ops)) {
				t.Fatalf("recovered applied_seq %d out of range [0,%d]", seq, len(ops))
			}
			// Resume the trace from the recovered statement sequence number.
			for i := int(seq); i < len(ops); i++ {
				if err := ops[i].run(re); err != nil {
					t.Fatalf("resume op %d (%s): %v", i, ops[i].label, err)
				}
			}
			got, err := crashFingerprint(re)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("recovered database diverges from uncrashed reference\ngot:\n%s\nwant:\n%s", got, want)
			}
		})
	}
	if point < 10 {
		t.Fatalf("only %d crash points swept", point)
	}
}

// TestCrashMatrixDoubleCrash re-crashes during recovery's own writes (the
// recovery checkpoint and seal commit are themselves gated writes on a second
// open), then verifies the third, clean open still recovers the same state.
func TestCrashMatrixDoubleCrash(t *testing.T) {
	for _, shards := range []int{1, 4} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			crashMatrixDoubleCrash(t, shards)
		})
	}
}

func crashMatrixDoubleCrash(t *testing.T, shards int) {
	dir := t.TempDir()
	ops := crashTrace()

	ref, err := Open(durableCrashConfig(filepath.Join(dir, "ref.pages"), nil, shards))
	if err != nil {
		t.Fatal(err)
	}
	runTrace(ref, ops)
	want, err := crashFingerprint(ref)
	if err != nil {
		t.Fatal(err)
	}
	totalWrites := ref.FileDisk().FileWrites()
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}

	for _, frac := range []int64{3, 2} {
		frac := frac
		t.Run(fmt.Sprintf("first_crash_at_1_%d", frac), func(t *testing.T) {
			path := filepath.Join(dir, fmt.Sprintf("double_%d.pages", frac))
			// First crash mid-trace.
			crash := fault.NewCrash(totalWrites/frac, frac == 3)
			if eng, err := Open(durableCrashConfig(path, crash, shards)); err == nil {
				runTrace(eng, ops)
				_ = eng.Close()
			}
			// Second crash: early in the next open, hitting recovery's own
			// checkpoint/seal writes.
			crash2 := fault.NewCrash(5, frac == 2)
			if eng, err := Open(durableCrashConfig(path, crash2, shards)); err == nil {
				runTrace(eng, ops)
				_ = eng.Close()
			}
			// Third open is clean and must fully recover; resume and compare.
			re, err := Open(durableCrashConfig(path, nil, shards))
			if err != nil {
				t.Fatalf("final recovery open: %v", err)
			}
			defer func() {
				if err := re.Close(); err != nil {
					t.Errorf("close: %v", err)
				}
			}()
			for i := re.AppliedSeq(); i < int64(len(ops)); i++ {
				if err := ops[i].run(re); err != nil {
					t.Fatalf("resume op %d (%s): %v", i, ops[i].label, err)
				}
			}
			got, err := crashFingerprint(re)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("double-crash recovery diverges\ngot:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}
