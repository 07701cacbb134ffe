package harness

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"specdb/internal/core"
	"specdb/internal/engine"
	"specdb/internal/fault"
	"specdb/internal/tpch"
)

// TestCrashMatrixDurableSpeculation extends the crash-at-any-write matrix to
// the configuration recovery had only ever been spared: a sharded buffer pool
// (PoolShards=4) with parallel speculation workers (SpecWorkers=3) writing
// volatile builds into the page file when the crash lands. A clean durable
// run calibrates the write span and pins the spec-on answers against an
// in-memory fault-free reference; then crash points swept across the workload
// span kill the backend mid-speculation, and after a clean reopen (WAL redo
// recovery frees every speculative orphan) the whole workload re-runs on the
// recovered database and must answer identically.
//
// The crash points sit a fixed stride of writes apart from the end of the
// load, not at fractions of the measured span: a change to how many pages the
// workload writes back moves neither the points nor the subtest names, and a
// span too short to hold the sweep fails calibration instead of silently
// compressing it.
func TestCrashMatrixDurableSpeculation(t *testing.T) {
	const (
		sessions  = 12
		shards    = 4
		workers   = 3
		poolPages = 48
		dataSeed  = 42
		points    = 5
		stride    = 188 // writes between crash points; the sweep covers 4*188 past the load
	)
	dir := t.TempDir()
	scale := tpch.NewScale("crashspec", 0.002)
	traces, err := ScaledCorpus(tpch.Vocabulary(), sessions, 23)
	if err != nil {
		t.Fatal(err)
	}

	refEnv, err := NewEnv(EnvConfig{Scale: scale, Seed: dataSeed, BufferPoolPages: PoolPages96MB})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := RunMultiUserNormal(refEnv.Eng, traces)
	if err != nil {
		t.Fatal(err)
	}

	specCore := func(eng *engine.Engine) core.Config {
		c := core.DefaultConfig()
		c.Workers = workers
		c.Ledger = core.NewLedger(eng.Metrics(), true)
		return c
	}
	open := func(path string, crash *fault.Crash) (*engine.Engine, error) {
		eng, err := engine.Open(engine.Config{
			BufferPoolPages: poolPages,
			PoolShards:      shards,
			Storage:         engine.StorageConfig{Path: path, CheckpointBytes: 8 << 10, Crash: crash},
		})
		if err != nil {
			return nil, err
		}
		// Crash points are seeded strictly past the load's last write, so the
		// dataset is always fully committed when the gate fires.
		if err := tpch.Load(eng, scale, dataSeed); err != nil {
			return nil, err
		}
		return eng, nil
	}
	checkAnswers := func(t *testing.T, label string, out *ScaledOutcome) {
		t.Helper()
		for _, diff := range answerDiffs(out.Timings, ref) {
			t.Errorf("%s: %s", label, diff)
		}
		for u, st := range out.PerUser {
			if st.Issued != st.Terminals() {
				t.Errorf("%s: session %d quiesce identity violated: issued %d != terminal %d (%+v)",
					label, u, st.Issued, st.Terminals(), st)
			}
		}
	}

	// Calibration: the uncrashed durable run bounds the sweep domain and pins
	// the sharded, multi-worker spec-on answers against the reference.
	calib, err := open(filepath.Join(dir, "ref.pages"), nil)
	if err != nil {
		t.Fatal(err)
	}
	loadWrites := calib.FileDisk().FileWrites()
	out, err := RunScaledSessions(calib, traces, specCore(calib))
	if err != nil {
		t.Fatal(err)
	}
	totalWrites := calib.FileDisk().FileWrites()
	checkAnswers(t, "calibration", out)
	if m := calib.Pool.Misuses(); m != 0 {
		t.Fatalf("calibration: %d pool misuses", m)
	}
	if err := calib.Close(); err != nil {
		t.Fatal(err)
	}
	span := totalWrites - loadWrites
	if span <= (points-1)*stride {
		t.Fatalf("workload performed only %d durable writes past the load; the sweep needs more than %d",
			span, (points-1)*stride)
	}

	crashes := 0
	for i := 0; i < points; i++ {
		at := loadWrites + 1 + stride*int64(i)
		torn := i%2 == 1
		t.Run(fmt.Sprintf("crash_at_write_%d_torn_%v", at, torn), func(t *testing.T) {
			path := filepath.Join(dir, fmt.Sprintf("crash_%d.pages", i))
			eng, err := open(path, fault.NewCrash(at, torn))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := RunScaledSessions(eng, traces, specCore(eng)); err == nil {
				// This run wrote less than the calibration run and the point
				// landed past its last write; nothing to recover.
				if cerr := eng.Close(); cerr != nil {
					t.Fatal(cerr)
				}
				return
			} else if !errors.Is(err, fault.ErrCrashed) {
				t.Fatalf("workload died of a non-crash error: %v", err)
			}
			_ = eng.Close() // backend is dead; close errors are expected
			crashes++

			// Clean reopen: WAL redo recovery must free the speculative
			// orphans and land on the fully committed dataset, and the whole
			// workload re-run on the recovered engine must answer exactly
			// like the fault-free reference.
			rec, err := engine.Open(engine.Config{
				BufferPoolPages: poolPages,
				PoolShards:      shards,
				Storage:         engine.StorageConfig{Path: path, CheckpointBytes: 8 << 10},
			})
			if err != nil {
				t.Fatalf("recovery open: %v", err)
			}
			defer func() {
				if err := rec.Close(); err != nil {
					t.Errorf("close recovered engine: %v", err)
				}
			}()
			rout, err := RunScaledSessions(rec, traces, specCore(rec))
			if err != nil {
				t.Fatalf("post-recovery replay: %v", err)
			}
			checkAnswers(t, "recovered", rout)
			if m := rec.Pool.Misuses(); m != 0 {
				t.Errorf("recovered run: %d pool misuses", m)
			}
		})
	}
	if crashes == 0 {
		t.Fatal("no crash point fired inside the workload span")
	}
}
