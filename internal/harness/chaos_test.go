package harness

import (
	"os"
	"strings"
	"testing"

	"specdb/internal/core"
	"specdb/internal/tpch"
)

// TestChaosSoak is the combined-fault soak (DESIGN.md §13): scaled sessions
// in batches under transient read/write faults, slow I/O, an undersized
// governed pool, and durable batches with a crash injected at a seeded file
// write. CI runs the short shape (64 sessions); scripts/soak.sh sets SOAK=1
// for the full 256-session soak.
func TestChaosSoak(t *testing.T) {
	sessions := 64
	if os.Getenv("SOAK") != "" {
		sessions = 256
	} else if testing.Short() {
		sessions = 32
	}
	cfg := DefaultChaosConfig(sessions, t.TempDir())
	rep, err := RunChaosSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("%d invariant violations:\n%s", len(rep.Violations), strings.Join(rep.Violations, "\n"))
	}
	if rep.Batches < 2 {
		t.Fatalf("soak ran only %d batches", rep.Batches)
	}
	if rep.Stats.Issued == 0 {
		t.Fatal("soak issued no speculative work; the chaos config is inert")
	}
	// The undersized pool must generate genuine overload: the governor sheds
	// work, yet (asserted batch-by-batch above) every measured answer still
	// matched the fault-free reference.
	if rep.Stats.Shed+rep.Stats.ShedRetained == 0 {
		t.Errorf("soak shed nothing under a %d-page pool; governor never engaged (%+v)", cfg.PoolPages, rep.Stats)
	}
	if cfg.Dir != "" && sessions >= 64 && rep.Crashes == 0 {
		t.Error("no durable batch crashed; the crash seeding never landed inside a workload")
	}
	t.Logf("soak: %d sessions, %d batches, %d crashes recovered, %d orphan pages freed, shed=%d+%d deadline_aborts=%d deferred=%d degraded=%s",
		rep.Sessions, rep.Batches, rep.Crashes, rep.RecoveredOrphans,
		rep.Stats.Shed, rep.Stats.ShedRetained, rep.Stats.DeadlineAborts, rep.Stats.GovernorDeferred, rep.DegradedTime)
}

// TestGovernorOverloadShedsButAnswersCorrect pins the degradation contract in
// isolation (no faults, no crashes): under a deliberately undersized pool the
// governor sheds speculative work (Shed > 0), measured answers stay identical
// to the ungoverned fault-free run, and the extended quiesce identity holds.
func TestGovernorOverloadShedsButAnswersCorrect(t *testing.T) {
	const sessions = 24
	traces, err := ScaledCorpus(tpch.Vocabulary(), sessions, 19)
	if err != nil {
		t.Fatal(err)
	}
	scale := tpch.NewScale("chaos", 0.002)

	refEnv, err := NewEnv(EnvConfig{Scale: scale, Seed: 42, BufferPoolPages: PoolPages96MB})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := RunMultiUserNormal(refEnv.Eng, traces)
	if err != nil {
		t.Fatal(err)
	}

	env, err := NewEnv(EnvConfig{Scale: scale, Seed: 42, BufferPoolPages: 28, PoolShards: 2})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Workers = 2
	cfg.BudgetPages = 10
	cfg.Ledger = core.NewLedger(env.Eng.Metrics(), true)
	cfg.Governor = core.NewGovernor(env.Eng.Pool)
	out, err := RunScaledSessions(env.Eng, traces, cfg)
	if err != nil {
		t.Fatal(err)
	}

	if out.Stats.Shed+out.Stats.ShedRetained == 0 {
		t.Errorf("no builds shed under a 28-page pool: %+v", out.Stats)
	}
	for _, diff := range answerDiffs(out.Timings, ref) {
		t.Errorf("governed overload changed the answers: %s", diff)
	}
	for u, st := range out.PerUser {
		if st.Issued != st.Terminals() {
			t.Errorf("session %d: quiesce identity violated: issued %d != terminal %d (%+v)", u, st.Issued, st.Terminals(), st)
		}
	}
	if n, m := cfg.Ledger.Len(), cfg.Ledger.Misuses(); n != 0 || m != 0 {
		t.Errorf("ledger holds %d entries after shutdown, %d misuses", n, m)
	}
}
