package lint_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"specdb/internal/lint"
)

// selfPkgs loads the whole module once for the self-check tests below.
func selfPkgs(t *testing.T) []*lint.Package {
	t.Helper()
	root, err := lint.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadModule()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages; module enumeration looks broken", len(pkgs))
	}
	return pkgs
}

// TestSpeclintCleanOnRepo is the self-check gate: the full rule suite over
// the whole module must produce zero findings. Any new violation — an
// unannotated panic, a bypassed meter, a leaked map order, a lock-order
// inversion — fails this test (and the dedicated CI step) with a
// position-accurate message.
func TestSpeclintCleanOnRepo(t *testing.T) {
	diags := lint.Run(lint.AllRules(), selfPkgs(t))
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Errorf("speclint must be clean on HEAD: %d finding(s); fix them or annotate with //speclint:allow <rule> -- <reason>", len(diags))
	}
}

// TestAllowCountPinned pins the number of //speclint:allow directives in
// the tree. Suppressions are individually justified escape hatches, not a
// budget: adding one means consciously bumping this pin in the same change,
// so the count cannot grow silently.
func TestAllowCountPinned(t *testing.T) {
	const pinned = 1 // internal/harness/chaos.go: errcheck on a demo writer
	entries := lint.CollectAllows(selfPkgs(t))
	if len(entries) != pinned {
		for _, e := range entries {
			t.Logf("allow at %s:%d: %v -- %s", e.File, e.Line, e.Rules, e.Reason)
		}
		t.Fatalf("tree has %d allow directives, pin says %d; if the new one is justified, update the pin in the same change", len(entries), pinned)
	}
	for _, e := range entries {
		if e.Reason == "" {
			t.Errorf("allow at %s:%d has no reason", e.File, e.Line)
		}
	}
}

// TestTestOnlyAPIPinned pins the exported functions and methods of the
// non-tool internal/ packages that no production function calls, each with
// the reason it stays: a read-only accessor a named test observes state
// through, a test seam, a soak entry point, or a call the CHA graph of
// callgraph.go cannot see (a method value, a method of a generic type). An
// operation that only tests reach fails this test until it gets a production
// caller or goes; code deleted for having none cannot grow back unnoticed.
// String, Error and the sort.Interface methods are skipped: fmt and sort
// call them through interfaces outside the module.
func TestTestOnlyAPIPinned(t *testing.T) {
	const (
		accessor = "read-only accessor"
		seam     = "test seam"
		soak     = "soak entry point"
		unseen   = "method value or generic call"
	)
	pinned := map[string]string{
		"(*specdb/internal/btree.BTree).CheckInvariants":     seam,     // audited after every insert by TestBTreePropertyRandomOps
		"(*specdb/internal/buffer.Pool).SameShard":           accessor, // TestReadersOverlapWritersWait
		"(*specdb/internal/buffer.Pool).MisuseError":         accessor, // TestConcurrentSessionsStressWithFaults
		"(*specdb/internal/buffer.Pool).IORetries":           accessor, // TestPoolRetriesInjectedReadAndWriteErrors
		"(*specdb/internal/buffer.Pool).DetectedCorruptions": accessor, // TestPoolDetectsAndRidesOutInjectedCorruption
		"(*specdb/internal/core.AnswerCache).Pages":          accessor, // TestUnholdablePredictionIsNeverIssued
		"(*specdb/internal/core.Governor).Breaker":           accessor, // TestGlobalBreakerTripAndRecover
		"(*specdb/internal/core.Governor).Level":             seam,     // TestGovernorHysteresis steps the band machine through it
		"(*specdb/internal/core.Governor).Transitions":       accessor, // TestGovernorHysteresis
		"(*specdb/internal/core.Learner).SelectionSurvival":  accessor, // TestLearnerEstimatesAreProbabilities
		"(*specdb/internal/core.Learner).JoinSurvival":       accessor, // TestLearnerEstimatesAreProbabilities
		"(*specdb/internal/core.Learner).ExportProfile":      unseen,   // durable.go hands it to Engine.SetProfileSource
		"(*specdb/internal/core.Predictor).Observations":     accessor, // TestPredictorUntrainedAndNil
		"(*specdb/internal/core.Speculator).Learner":         accessor, // TestSessionManagerLifecycle
		"(*specdb/internal/engine.Engine).AppliedSeq":        accessor, // TestCrashMatrixRecoversIdentically
		"(*specdb/internal/engine.Engine).PanicLog":          accessor, // TestConcurrentSessionsStressWithFaults
		"(*specdb/internal/engine.Engine).DataVersion":       unseen,   // core hands it to AnswerCache.Get
		"(*specdb/internal/engine.Engine).DropIndex":         seam,     // the crash matrix and BenchmarkLayerIndexBuild reset with it
		"(*specdb/internal/engine.Engine).DropHistogram":     seam,     // TestStatementBoundary and BenchmarkLayerHistogramBuild reset with it
		"(*specdb/internal/fault.Breaker).State":             accessor, // TestBreakerStateMachine
		"(*specdb/internal/fault.Crash).Dead":                accessor, // TestCrashMatrixRecoversIdentically
		"(*specdb/internal/fault.Crash).Writes":              accessor, // TestCrashMatrixRecoversIdentically
		"(*specdb/internal/fault.GlobalBreaker).Trips":       accessor, // TestGlobalBreakerTripAndRecover
		"specdb/internal/harness.DefaultChaosConfig":         soak,     // TestChaosSoak, scripts/soak.sh
		"specdb/internal/harness.RunChaosSoak":               soak,     // TestChaosSoak, scripts/soak.sh
		"(*specdb/internal/obs.PanicLog).Total":              accessor, // TestConcurrentSessionsStressWithFaults
		"(*specdb/internal/obs.PanicLog).Records":            accessor, // TestConcurrentSessionsStressWithFaults
		"(specdb/internal/obs.Span).Duration":                accessor, // TestTracerSpans
		"(*specdb/internal/obs.ActiveSpan).ID":               accessor, // TestTracerSpans
		"(*specdb/internal/obs.Tracer).Spans":                accessor, // TestDecisionTrace
		"(*specdb/internal/obs.Tracer).Dropped":              accessor, // TestDecisionTrace
		"(*specdb/internal/qgraph.Graph).Equal":              accessor, // TestGraphAlgebraProperties compares graphs with it
		"specdb/internal/sim.DurationFromSeconds":            seam,     // the core tests' duration literal, FromSeconds' twin
		"(*specdb/internal/slab.Classes[T]).Take":            unseen,   // called on instantiated slab.Classes
		"(*specdb/internal/slab.Classes[T]).Give":            unseen,   // called on instantiated slab.Classes
		"specdb/internal/sql.GraphOfSelect":                  seam,     // FuzzPredictedForm's reference inverse of RenderForm
		"(*specdb/internal/storage.DiskManager).HighWater":   accessor, // TestScaledSessionsPageFootprintStable
		"(*specdb/internal/storage.FileDisk).Recovery":       accessor, // TestOpenReinitializesWhenNothingCommitted
		"(*specdb/internal/storage.FileDisk).LastLSN":        accessor, // TestFileDiskAccessors
		"(*specdb/internal/storage.FileDisk).Checkpoints":    accessor, // TestFileDiskAccessors
		"(*specdb/internal/storage.FileDisk).HighWater":      accessor, // TestFileDiskAccessors
		"(specdb/internal/tuple.Value).Equal":                accessor, // TestValueCompare compares values with it
	}
	prog := lint.NewProgram(selfPkgs(t))
	found := map[string]bool{}
	for _, n := range prog.Nodes() {
		path := n.Pkg.Path
		if !strings.HasPrefix(path, "specdb/internal/") || path == "specdb/internal/lint" || path == "specdb/internal/golden" ||
			!n.Fn.Exported() || len(prog.Callers(n)) > 0 {
			continue
		}
		switch n.Fn.Name() {
		case "String", "Error", "Len", "Less", "Swap":
			continue
		}
		found[n.Name()] = true
		if _, ok := pinned[n.Name()]; !ok {
			t.Errorf("%s has no production caller: give it one, delete it, or pin it here with its reason", n.Name())
		}
	}
	for name := range pinned {
		if !found[name] {
			t.Errorf("%s is pinned as test-only but is gone or has a production caller now: unpin it", name)
		}
	}
}

// TestLockOrderManifestMatchesDesign cross-checks the machine-readable
// hierarchy manifest against the prose declaration in DESIGN.md §6, so
// neither can drift without the other.
func TestLockOrderManifestMatchesDesign(t *testing.T) {
	root, err := lint.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	design, err := os.ReadFile(filepath.Join(root, "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	if err := lint.CrossCheckManifest(design); err != nil {
		t.Fatal(err)
	}
}
