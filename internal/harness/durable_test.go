package harness

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"specdb/internal/core"
	"specdb/internal/engine"
	"specdb/internal/storage"
	"specdb/internal/tpch"
)

// TestScaledSessionsPageFootprintStable is the free-list regression test:
// DiskManager.Free used to retire PageIDs forever, so repeated speculate/GC
// cycles grew the disk's high-water mark monotonically even though Allocated()
// returned to baseline. With free-list reuse, identical cycles must hold both
// Allocated() and HighWater() exactly stable after the first cycle.
func TestScaledSessionsPageFootprintStable(t *testing.T) {
	env := tinyEnv(t, EnvConfig{BufferPoolPages: PoolPages96MB})
	dm, ok := env.Eng.Disk.(*storage.DiskManager)
	if !ok {
		t.Fatalf("fault-free env disk is %T, want *storage.DiskManager", env.Eng.Disk)
	}
	traces, err := ScaledCorpus(tpch.Vocabulary(), 6, 7)
	if err != nil {
		t.Fatal(err)
	}
	cycle := func() {
		cfg := core.DefaultConfig()
		cfg.Workers = 1
		if _, err := RunScaledSessions(env.Eng, traces, cfg); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	hw, alloc := dm.HighWater(), dm.Allocated()
	for i := 0; i < 3; i++ {
		cycle()
		if got := dm.Allocated(); got != alloc {
			t.Fatalf("cycle %d: Allocated = %d, want %d (speculative pages leaked)", i+2, got, alloc)
		}
		if got := dm.HighWater(); got != hw {
			t.Fatalf("cycle %d: HighWater = %d, want %d (freed PageIDs not reused)", i+2, got, hw)
		}
	}
}

// durableProbes must be answered identically before close and after reopen.
var durableProbes = []string{
	"SELECT * FROM lineitem WHERE lineitem.l_quantity < 3",
	"SELECT * FROM orders WHERE orders.o_totalprice > 100000",
	"SELECT * FROM customer, orders WHERE customer.c_custkey = orders.o_custkey AND customer.c_acctbal < 0",
}

func durableFingerprint(t *testing.T, eng *engine.Engine) string {
	t.Helper()
	var b strings.Builder
	for _, q := range durableProbes {
		res, err := eng.Exec(q)
		if err != nil {
			t.Fatalf("probe %q: %v", q, err)
		}
		fmt.Fprintf(&b, "%q rows=%d\n", q, res.RowCount)
		for _, row := range res.Rows {
			for _, v := range row {
				fmt.Fprintf(&b, " %d:%v", v.Kind(), v)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// TestDurableEnvReopen loads the tiny dataset onto a durable engine, runs a
// scaled speculative session replay over it, leaves one speculative
// materialization live, and closes. Reopening must restore the base tables
// with identical query answers and the learned profile byte-for-byte, while
// the speculative namespace is gone and its pages are reclaimed.
func TestDurableEnvReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "env.pages")
	cfg := engine.Config{
		BufferPoolPages: PoolPages96MB,
		Storage:         engine.StorageConfig{Path: path},
	}
	eng, err := engine.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tpch.Load(eng, tinyScale, 42); err != nil {
		t.Fatal(err)
	}
	learner := core.NewLearner(core.DefaultLearnerConfig())
	eng.SetProfileSource(learner.ExportProfile)

	traces, err := ScaledCorpus(tpch.Vocabulary(), 4, 11)
	if err != nil {
		t.Fatal(err)
	}
	ccfg := core.DefaultConfig()
	ccfg.Workers = 1
	if _, err := RunScaledSessions(eng, traces, ccfg); err != nil {
		t.Fatal(err)
	}

	// A speculative materialization left live across the restart: its
	// statement must not have committed, and recovery must reclaim its pages.
	if _, err := eng.Exec("SELECT * FROM lineitem WHERE lineitem.l_quantity < 5 INTO TABLE spec_leftover"); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Catalog.Table("spec_leftover"); err != nil {
		t.Fatal("speculative materialization missing before close")
	}

	baseTables := []string{}
	for _, n := range eng.Catalog.TableNames() {
		if !strings.HasPrefix(n, "spec") {
			baseTables = append(baseTables, n)
		}
	}
	want := durableFingerprint(t, eng)
	wantProfile, err := learner.ExportProfile()
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := engine.Open(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer func() {
		if err := re.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	if !reflect.DeepEqual(re.Catalog.TableNames(), baseTables) {
		t.Fatalf("recovered tables %v, want %v", re.Catalog.TableNames(), baseTables)
	}
	if _, err := re.Catalog.Table("spec_leftover"); err == nil {
		t.Fatal("speculative namespace survived restart")
	}
	if re.RecoveredOrphans() == 0 {
		t.Fatal("recovery reclaimed no orphan pages despite a live speculative table at close")
	}
	if got := durableFingerprint(t, re); got != want {
		t.Errorf("recovered answers diverge\ngot:\n%s\nwant:\n%s", got, want)
	}
	if got := re.RecoveredProfile(); !bytes.Equal(got, wantProfile) {
		t.Errorf("recovered profile differs: %d bytes vs %d", len(got), len(wantProfile))
	}
}
