package harness

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"

	"specdb/internal/core"
	"specdb/internal/engine"
	"specdb/internal/fault"
	"specdb/internal/sim"
	"specdb/internal/tpch"
	"specdb/internal/trace"
)

// This file implements the combined-fault chaos soak (DESIGN.md §13): many
// scaled sessions replayed in batches against deliberately hostile
// environments — transient read/write faults, slow I/O, undersized buffer
// pools, and (for durable batches) a crash injected at a seeded file write —
// with the full governance stack enabled. The soak does not measure speed; it
// asserts that every robustness invariant the engine claims actually holds
// when everything goes wrong at once:
//
//   - quiesce identity per session (Issued == Stats.Terminals());
//   - charged-once waste accounting (no build charged twice);
//   - zero buffer-pool pin-discipline violations;
//   - the ledger every batch's sessions share is empty after shutdown and
//     was never misused (no end, finish or release of what the asker did
//     not hold);
//   - every measured answer equals the fault-free reference run byte-for-byte
//     (order-insensitive row-set fingerprints).

// ChaosConfig sizes a soak. The zero value is not runnable; use
// DefaultChaosConfig and override.
type ChaosConfig struct {
	Sessions int // total sessions across the soak
	Batch    int // sessions per batch (each batch gets a fresh environment)
	Seed     uint64
	DataSeed uint64
	Scale    tpch.Scale

	// PoolPages deliberately undersizes the chaos pool so the governor sees
	// genuine pressure; the fault-free reference uses a comfortable pool
	// (answers are pool-independent, only timings change).
	PoolPages   int
	PoolShards  int
	Workers     int
	BudgetPages int

	Fault fault.Config // transient faults for the chaos runs

	// Dir, when non-empty, makes every other batch durable: the dataset is
	// loaded into a page file, a crash gate is armed at a seeded write count
	// past the load, and when it fires the engine is reopened (WAL recovery)
	// and the batch re-run on the recovered database.
	Dir string
}

// DefaultChaosConfig is the standard soak shape: combined fault kinds at
// rates the retry layer must absorb, a pool small enough to keep the
// governor in the pressured/critical bands, and cross-session CSE on.
func DefaultChaosConfig(sessions int, dir string) ChaosConfig {
	return ChaosConfig{
		Sessions:    sessions,
		Batch:       32,
		Seed:        1041,
		DataSeed:    42,
		Scale:       tpch.NewScale("chaos", 0.002),
		PoolPages:   28,
		PoolShards:  2,
		Workers:     2,
		BudgetPages: 10,
		Fault: fault.Config{
			Seed:                77,
			ReadErrorRate:       0.03,
			WriteErrorRate:      0.03,
			CorruptionRate:      0.01,
			SlowIORate:          0.03,
			FrameExhaustionRate: 0.02,
		},
		Dir: dir,
	}
}

// ChaosReport aggregates a soak.
type ChaosReport struct {
	Sessions int
	Batches  int
	// Crashes counts durable batches whose injected crash actually fired and
	// recovered; durable batches whose seeded crash point landed past the
	// workload's last write simply run to completion.
	Crashes int
	// RecoveredOrphans sums the speculative orphan pages freed by WAL
	// recovery across all crash batches.
	RecoveredOrphans int
	Stats            core.Stats // summed over every session
	DegradedTime     sim.Duration
	// Violations lists every invariant breach found, one line each. A clean
	// soak reports none.
	Violations []string
}

// chaosBatch is one batch's replay against a single environment.
type chaosBatch struct {
	traces []*trace.Trace
	ref    []QueryTiming // the fault-free answers
	endAt  sim.Time      // latest event instant, for DegradedTime
}

// chaosCore assembles the per-batch speculation config: a sharing ledger and
// a governor over the given engine.
func chaosCore(cfg ChaosConfig, eng *engine.Engine) core.Config {
	c := core.DefaultConfig()
	c.Workers = cfg.Workers
	c.BudgetPages = cfg.BudgetPages
	c.Ledger = core.NewLedger(eng.Metrics(), true)
	c.Governor = core.NewGovernor(eng.Pool)
	c.Governor.AttachMetrics(eng.Metrics())
	return c
}

// checkBatch applies every per-batch invariant to a replay under c, appending
// violations.
func checkBatch(rep *ChaosReport, label string, b chaosBatch, out *ScaledOutcome, c core.Config, misuses int64) {
	fail := func(format string, args ...any) {
		rep.Violations = append(rep.Violations, fmt.Sprintf("%s: ", label)+fmt.Sprintf(format, args...))
	}
	for u, st := range out.PerUser {
		if st.Issued != st.Terminals() {
			fail("session %d: quiesce identity violated: issued %d != terminal %d (%+v)", u, st.Issued, st.Terminals(), st)
		}
	}
	for u, ledger := range out.WasteLedgers {
		for key, n := range ledger {
			if n > 1 {
				fail("session %d: build %q charged %d times (charged-once violated)", u, key, n)
			}
		}
	}
	if misuses != 0 {
		fail("%d buffer-pool pin misuses", misuses)
	}
	if n, m := c.Ledger.Len(), c.Ledger.Misuses(); n != 0 || m != 0 {
		fail("ledger holds %d entries after shutdown, %d misuses", n, m)
	}
	for _, diff := range answerDiffs(out.Timings, b.ref) {
		fail("%s", diff)
	}
	rep.Stats = SumStatsAll([]core.Stats{rep.Stats, out.Stats})
	rep.DegradedTime += c.Governor.DegradedTime(b.endAt)
}

// answerDiffs lists how a replay's answers differ from the fault-free
// reference's: in number, by a query the reference lacks, or in a row-set.
func answerDiffs(got, ref []QueryTiming) []string {
	var diffs []string
	if len(got) != len(ref) {
		diffs = append(diffs, fmt.Sprintf("answered %d queries, fault-free reference has %d", len(got), len(ref)))
	}
	want, err := alignTimings(got, ref)
	if err != nil {
		return append(diffs, err.Error())
	}
	for i, qt := range got {
		if w := want[i]; qt.Rows != w.Rows || qt.RowsKey != w.RowsKey {
			diffs = append(diffs, fmt.Sprintf("query %d/%d: row-set (n=%d key=%x) differs from fault-free reference (n=%d key=%x)",
				qt.TraceIdx, qt.QueryIdx, qt.Rows, qt.RowsKey, w.Rows, w.RowsKey))
		}
	}
	return diffs
}

// prepareBatch generates the batch corpus and its fault-free reference
// answers (fresh unfaulted in-memory environment, no speculation).
func prepareBatch(cfg ChaosConfig, batch, sessions int) (chaosBatch, error) {
	b := chaosBatch{}
	traces, err := ScaledCorpus(tpch.Vocabulary(), sessions, cfg.Seed+uint64(batch)*7919)
	if err != nil {
		return b, err
	}
	b.traces = traces
	for _, tr := range traces {
		for _, ev := range tr.Events {
			if at := ev.At(); at > b.endAt {
				b.endAt = at
			}
		}
	}
	refEnv, err := NewEnv(EnvConfig{Scale: cfg.Scale, Seed: cfg.DataSeed, BufferPoolPages: PoolPages96MB})
	if err != nil {
		return b, err
	}
	b.ref, err = RunMultiUserNormal(refEnv.Eng, traces)
	return b, err
}

// runMemoryBatch replays one batch against a fresh faulted in-memory engine
// with an undersized pool.
func runMemoryBatch(cfg ChaosConfig, rep *ChaosReport, batch int, b chaosBatch) error {
	f := cfg.Fault
	f.Seed = cfg.Fault.Seed + uint64(batch)*104729
	env, err := NewEnv(EnvConfig{
		Scale:           cfg.Scale,
		Seed:            cfg.DataSeed,
		BufferPoolPages: cfg.PoolPages,
		PoolShards:      cfg.PoolShards,
		Fault:           f,
	})
	if err != nil {
		return err
	}
	c := chaosCore(cfg, env.Eng)
	out, err := RunScaledSessions(env.Eng, b.traces, c)
	if err != nil {
		return fmt.Errorf("chaos: memory batch %d: %w", batch, err)
	}
	checkBatch(rep, fmt.Sprintf("memory batch %d", batch), b, out, c, env.Eng.Pool.Misuses())
	return nil
}

// chaosWrites calibrates the durable write-count landscape once per soak: a
// clean durable run of the given batch records how many file writes the load
// performs and how many the whole batch performs, bounding the seeded crash
// points for every later durable batch.
type chaosWrites struct {
	load  int64 // writes consumed by open + dataset load
	total int64 // writes consumed by open + load + a full batch workload
}

// runDurableBatch loads the dataset into a page file with a crash gate armed
// at a seeded write count strictly past the load (so the recovered database
// always holds the full dataset), replays the batch until the crash kills
// the backend, reopens (WAL redo recovery frees speculative orphans), and
// re-runs the batch on the recovered engine — which must then answer exactly
// like the fault-free reference.
func runDurableBatch(cfg ChaosConfig, rep *ChaosReport, batch int, b chaosBatch, w *chaosWrites) error {
	open := func(path string, crash *fault.Crash, faulted bool) (*engine.Engine, error) {
		ec := engine.Config{
			BufferPoolPages: cfg.PoolPages,
			PoolShards:      cfg.PoolShards,
			Storage:         engine.StorageConfig{Path: path, Crash: crash},
		}
		if faulted {
			f := cfg.Fault
			f.Seed = cfg.Fault.Seed + uint64(batch)*104729
			ec.Fault = f
		}
		eng, err := engine.Open(ec)
		if err != nil {
			return nil, err
		}
		// Faults and crash gates must not corrupt the dataset itself: the
		// soak compares answers against a fault-free reference, so the load
		// runs unfaulted and the crash point is seeded past its last write.
		eng.FaultInjector().SetArmed(false)
		if err := tpch.Load(eng, cfg.Scale, cfg.DataSeed); err != nil {
			return nil, fmt.Errorf("chaos: durable load: %w", err)
		}
		eng.FaultInjector().SetArmed(true)
		return eng, nil
	}

	// Calibrate on the first durable batch: a clean run records the write
	// counts, then the SAME batch still gets its crash attempt below — a
	// 2-batch soak must include a real crash.
	if w.total == 0 {
		path := filepath.Join(cfg.Dir, "chaos_calibrate.pages")
		eng, err := open(path, nil, false)
		if err != nil {
			return err
		}
		w.load = eng.FileDisk().FileWrites()
		c := chaosCore(cfg, eng)
		out, err := RunScaledSessions(eng, b.traces, c)
		if err != nil {
			return fmt.Errorf("chaos: durable calibration batch %d: %w", batch, err)
		}
		w.total = eng.FileDisk().FileWrites()
		checkBatch(rep, fmt.Sprintf("durable batch %d (calibration)", batch), b, out, c, eng.Pool.Misuses())
		if err := eng.Close(); err != nil {
			return err
		}
	}

	// Seed a crash point strictly inside the workload's write span. Workload
	// write counts vary per batch; a point past this batch's last write means
	// the crash never fires, which is checked and tolerated below.
	span := w.total - w.load
	if span < 1 {
		span = 1
	}
	at := w.load + 1 + int64(cfg.Seed+uint64(batch)*2654435761)%span
	torn := batch%4 == 1
	crash := fault.NewCrash(at, torn)

	path := filepath.Join(cfg.Dir, fmt.Sprintf("chaos_b%03d.pages", batch))
	eng, err := open(path, crash, true)
	if err != nil {
		return err
	}
	c := chaosCore(cfg, eng)
	out, err := RunScaledSessions(eng, b.traces, c)
	if err == nil {
		// Crash point landed past this batch's last write: a complete run.
		checkBatch(rep, fmt.Sprintf("durable batch %d (uncrashed)", batch), b, out, c, eng.Pool.Misuses())
		return eng.Close()
	}
	if !errors.Is(err, fault.ErrCrashed) {
		return fmt.Errorf("chaos: durable batch %d died of a non-crash error: %w", batch, err)
	}
	//speclint:allow errcheck -- the injected crash killed the backend; Close must run for resource cleanup but its error is the crash itself
	_ = eng.Close()

	// Recovery: reopen without the gate, then replay the whole batch on the
	// recovered database. The dataset was fully committed before the crash,
	// and recovery frees every speculative orphan, so the recovered run must
	// be indistinguishable from a fresh one.
	rec, err := engine.Open(engine.Config{
		BufferPoolPages: cfg.PoolPages,
		PoolShards:      cfg.PoolShards,
		Storage:         engine.StorageConfig{Path: path},
	})
	if err != nil {
		return fmt.Errorf("chaos: durable batch %d recovery open: %w", batch, err)
	}
	rep.Crashes++
	rep.RecoveredOrphans += rec.RecoveredOrphans()
	rc := chaosCore(cfg, rec)
	rout, err := RunScaledSessions(rec, b.traces, rc)
	if err != nil {
		return fmt.Errorf("chaos: durable batch %d post-recovery replay: %w", batch, err)
	}
	checkBatch(rep, fmt.Sprintf("durable batch %d (recovered, crash@%d torn=%v)", batch, at, torn), b, rout, rc, rec.Pool.Misuses())
	return rec.Close()
}

// RunChaosSoak runs the combined-fault soak and reports every invariant
// violation found (an error return means the soak infrastructure itself
// failed, not that an invariant broke).
func RunChaosSoak(cfg ChaosConfig) (*ChaosReport, error) {
	if cfg.Sessions <= 0 || cfg.Batch <= 0 {
		return nil, fmt.Errorf("chaos: Sessions and Batch must be positive (got %d, %d)", cfg.Sessions, cfg.Batch)
	}
	rep := &ChaosReport{Sessions: cfg.Sessions}
	var w chaosWrites
	for done, batch := 0, 0; done < cfg.Sessions; batch++ {
		n := cfg.Batch
		if remaining := cfg.Sessions - done; n > remaining {
			n = remaining
		}
		done += n
		rep.Batches++
		b, err := prepareBatch(cfg, batch, n)
		if err != nil {
			return nil, err
		}
		if cfg.Dir != "" && batch%2 == 1 {
			err = runDurableBatch(cfg, rep, batch, b, &w)
		} else {
			err = runMemoryBatch(cfg, rep, batch, b)
		}
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(rep.Violations)
	return rep, nil
}
