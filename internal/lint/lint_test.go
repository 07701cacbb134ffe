package lint_test

import (
	"path/filepath"
	"strings"
	"testing"

	"specdb/internal/golden"
	"specdb/internal/lint"
)

// sharedLoader caches type-checked stdlib and module packages across the
// fixture subtests; LoadDir never caches fixture roots, so fixtures that
// mimic real package paths (the obs one) cannot poison it.
var sharedLoader *lint.Loader

func loader(t *testing.T) *lint.Loader {
	t.Helper()
	if sharedLoader == nil {
		root, err := lint.FindModuleRoot(".")
		if err != nil {
			t.Fatal(err)
		}
		l, err := lint.NewLoader(root)
		if err != nil {
			t.Fatal(err)
		}
		sharedLoader = l
	}
	return sharedLoader
}

// checkFindings runs one rule over one fixture package and compares the rendered
// findings (with testdata/src-relative paths) against testdata/golden.
func checkFindings(t *testing.T, rule lint.Rule, logical, goldenName string) {
	t.Helper()
	l := loader(t)
	dir := filepath.Join("testdata", "src", filepath.FromSlash(logical))
	pkg, err := l.LoadDir(dir, logical)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", logical, err)
	}
	diags := lint.Run([]lint.Rule{rule}, []*lint.Package{pkg})
	srcRoot, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, d := range diags {
		if rel, err := filepath.Rel(srcRoot, d.File); err == nil {
			d.File = filepath.ToSlash(rel)
		}
		b.WriteString(d.String())
		b.WriteString("\n")
	}
	golden.Check(t, filepath.Join("testdata", "golden", goldenName+".golden"), b.String())
}

func TestDeterminismGolden(t *testing.T) {
	checkFindings(t, lint.Determinism{}, "specdb/internal/fixdet", "determinism")
}

func TestAllowSuppressionGolden(t *testing.T) {
	checkFindings(t, lint.Determinism{}, "specdb/internal/fixallow", "allow")
}

func TestMeteringGolden(t *testing.T) {
	checkFindings(t, lint.Metering{}, "specdb/internal/fixmet", "metering")
}

// TestMeteringBufferGolden pins the pool-layer carve-out: packages under
// internal/buffer may call Disk data paths, but os file I/O is still flagged
// there — real file handles live in internal/storage only.
func TestMeteringBufferGolden(t *testing.T) {
	checkFindings(t, lint.Metering{}, "specdb/internal/buffer/fixbufio", "metering_buffer")
}

func TestPanicsGolden(t *testing.T) {
	checkFindings(t, lint.PanicDiscipline{}, "specdb/internal/fixpan", "panics")
}

func TestLocksGolden(t *testing.T) {
	checkFindings(t, lint.LockDiscipline{}, "specdb/internal/fixlock", "locks")
}

// TestLocksShardGolden pins the strict mode added for the sharded buffer
// pool: a struct with *Locked helpers has every non-Locked method checked,
// unexported ones included.
func TestLocksShardGolden(t *testing.T) {
	checkFindings(t, lint.LockDiscipline{}, "specdb/internal/fixshard", "locks_shard")
}

func TestObsPurityGolden(t *testing.T) {
	checkFindings(t, lint.ObsPurity{}, "specdb/internal/obs", "obspurity")
}

func TestErrCheckGolden(t *testing.T) {
	checkFindings(t, lint.ErrCheck{}, "specdb/internal/fixerr", "errcheck")
}

func TestBoundedGolden(t *testing.T) {
	checkFindings(t, lint.Bounded{}, "specdb/internal/fixbound", "bounded")
}

// TestLockOrderCycleGolden pins the interprocedural cycle proof: Left.mu
// and Right.mu are each acquired while the other is held, one call level
// apart, and the finding carries the witness call paths for both edges.
func TestLockOrderCycleGolden(t *testing.T) {
	checkFindings(t, lint.LockOrder{}, "specdb/internal/fixcycle", "lockorder_cycle")
}

// TestLockOrderInversionGolden pins the manifest check: a fixture mimicking
// the real storage package holds the disk-level lock while taking the
// heap-level one, contradicting the DESIGN.md §6 hierarchy.
func TestLockOrderInversionGolden(t *testing.T) {
	checkFindings(t, lint.LockOrder{}, "specdb/internal/storage", "lockorder_inversion")
}

// TestLockOrderReentryGolden pins the locked-callback check: a fixture
// mimicking the engine's statement boundary enters a second statement from
// inside a statement body — through a helper, and by passing an entry point
// as the body — while two statements in sequence stay clean.
func TestLockOrderReentryGolden(t *testing.T) {
	checkFindings(t, lint.LockOrder{}, "specdb/internal/engine", "lockorder_reentry")
}

// TestMeterFlowGolden pins the reachability proof: a disk read completable
// from an entry point with no Charge* on the path is flagged with the full
// root-to-disk witness, while entry-point and in-function charging both
// count as priced.
func TestMeterFlowGolden(t *testing.T) {
	checkFindings(t, lint.MeterFlow{}, "specdb/internal/fixflow", "meterflow")
}

// TestRuleNamesStable pins the rule names: allow directives in the tree
// reference them, so renaming one silently disables suppressions.
func TestRuleNamesStable(t *testing.T) {
	want := []string{"determinism", "metering", "panics", "locks", "obspurity", "errcheck", "bounded", "lockorder", "meterflow"}
	rules := lint.AllRules()
	if len(rules) != len(want) {
		t.Fatalf("got %d rules, want %d", len(rules), len(want))
	}
	for i, r := range rules {
		if r.Name() != want[i] {
			t.Errorf("rule %d: got %q, want %q", i, r.Name(), want[i])
		}
		if r.Doc() == "" {
			t.Errorf("rule %q has no doc line", r.Name())
		}
	}
}
