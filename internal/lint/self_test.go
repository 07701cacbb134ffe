package lint_test

import (
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
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
		"(*specdb/internal/engine.Engine).InsertRows":        seam,     // tests and the layer benchmarks load literal rows; tpch loads through InsertGenerated
		"(*specdb/internal/fault.Crash).Dead":                accessor, // TestCrashMatrixRecoversIdentically
		"(*specdb/internal/fault.Crash).Writes":              accessor, // TestCrashMatrixRecoversIdentically
		"specdb/internal/harness.DefaultChaosConfig":         soak,     // TestChaosSoak, scripts/soak.sh
		"specdb/internal/harness.RunChaosSoak":               soak,     // TestChaosSoak, scripts/soak.sh
		"(*specdb/internal/obs.PanicLog).Total":              accessor, // TestConcurrentSessionsStressWithFaults
		"(*specdb/internal/obs.PanicLog).Records":            accessor, // TestConcurrentSessionsStressWithFaults
		"(specdb/internal/obs.Span).Duration":                accessor, // TestTracerSpans
		"(*specdb/internal/obs.ActiveSpan).ID":               accessor, // TestTracerSpans
		"(*specdb/internal/obs.Tracer).Spans":                accessor, // TestDecisionTrace
		"(*specdb/internal/obs.Tracer).Dropped":              accessor, // TestDecisionTrace
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

// TestEveryOptionIsSet pins the exported fields of the option structs below
// that no non-test code outside the declaring package writes — by a keyed or
// positional composite literal, an assignment, an increment or an &field
// handed to a setter — each with the reason it stays. A field only its own
// package or the tests set has one value in use: make it a constant, or pin
// it here.
func TestEveryOptionIsSet(t *testing.T) {
	const (
		public         = "public API: a library caller sets it"
		deployment     = "public API: a deployment setting, kept configurable"
		ownPackage     = "set inside its package from a constructor's arguments"
		ownRunners     = "set by its package's own experiment runners"
		seam           = "test seam"
		cmdBenchFrozen = "frozen by cmd/bench's calls until ROADMAP 5(b)"
	)
	structs := map[string][]string{
		"specdb":                  {"Options", "SessionConfig", "StorageConfig"},
		"specdb/internal/core":    {"Config", "CostModel", "LearnerConfig", "PredictorConfig"},
		"specdb/internal/engine":  {"Config", "StorageConfig"},
		"specdb/internal/harness": {"EnvConfig"},
		"specdb/internal/trace":   {"GenConfig"},
		"specdb/internal/fault":   {"Config"},
		"specdb/internal/storage": {"FileConfig"},
		"specdb/internal/plan":    {"Options"},
	}
	pinned := map[string]string{
		"specdb.Options.BufferPoolPages":             public,     // TestOpenDurableRoundTrip
		"specdb.Options.PoolShards":                  public,     // TestScaledSessionsSharedSpeculation
		"specdb.Options.SpecWorkers":                 public,     // TestScaledSessionsSharedSpeculation
		"specdb.Options.SharedSpeculation":           public,     // TestScaledSessionsSharedSpeculation
		"specdb.Options.SpecBudgetPages":             public,     // TestScaledSessionsSharedSpeculation
		"specdb.Options.PredictFinals":               public,     // TestPredictedResultEquivalence
		"specdb.Options.Governor":                    public,     // TestPredictedResultEquivalence
		"specdb.Options.Fault":                       public,     // TestConcurrentSessionsStressWithFaults
		"specdb.Options.Storage":                     public,     // TestOpenDurableRoundTrip
		"specdb.StorageConfig.Path":                  public,     // TestOpenDurableRoundTrip
		"specdb.StorageConfig.CheckpointBytes":       deployment, // the engine's crash matrix varies engine.StorageConfig's
		"specdb.StorageConfig.Sync":                  deployment, // fsync at durability points; TestFileDiskAccessors sets storage.FileConfig's
		"specdb.SessionConfig.SelectionsOnly":        public,     // TestConcurrentSessionsStress
		"core.CostModel.Eng":                         ownPackage, // NewSpeculator
		"core.CostModel.Learner":                     ownPackage, // NewSpeculator
		"core.CostModel.Lookahead":                   ownPackage, // NewSpeculator, from Config.Lookahead
		"trace.GenConfig.Seed":                       ownPackage, // DefaultGenConfig
		"trace.GenConfig.User":                       ownPackage, // DefaultGenConfig
		"harness.EnvConfig.PrematerializeViews":      ownRunners, // RunFigure6
		"harness.EnvConfig.Fault":                    ownRunners, // the chaos soak
		"storage.FileConfig.PageSize":                seam,       // the storage property tests run on small pages
		"fault.Config.SlowIOPenaltyPages":            seam,       // FuzzLifecycle's deadline seam
		"core.LearnerConfig.Decay":                   cmdBenchFrozen,
		"core.LearnerConfig.PriorStrength":           cmdBenchFrozen,
		"core.LearnerConfig.SelectionSurvivalPrior":  cmdBenchFrozen,
		"core.LearnerConfig.JoinSurvivalPrior":       cmdBenchFrozen,
		"core.LearnerConfig.SelectionRetentionPrior": cmdBenchFrozen,
		"core.LearnerConfig.JoinRetentionPrior":      cmdBenchFrozen,
		"core.PredictorConfig.TopK":                  cmdBenchFrozen,
		"core.PredictorConfig.MinConfidence":         cmdBenchFrozen,
		"core.PredictorConfig.Decay":                 cmdBenchFrozen,
		"core.PredictorConfig.TransitionWeight":      cmdBenchFrozen,
	}
	pkgs := selfPkgs(t)
	byPath := map[string]*lint.Package{}
	for _, p := range pkgs {
		byPath[p.Path] = p
	}
	declared := map[*types.Var]string{} // every exported field of the structs above, by name
	for path, names := range structs {
		for _, name := range names {
			p := byPath[path]
			if p == nil || p.Pkg.Scope().Lookup(name) == nil {
				t.Fatalf("%s.%s is gone: update the struct list", path, name)
			}
			st := p.Pkg.Scope().Lookup(name).Type().Underlying().(*types.Struct)
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					declared[f] = p.Pkg.Name() + "." + name + "." + f.Name()
				}
			}
		}
	}
	set := map[*types.Var]bool{}
	for _, p := range pkgs {
		mark := func(obj types.Object) {
			if f, ok := obj.(*types.Var); ok && f.Pkg() != p.Pkg {
				set[f] = true
			}
		}
		selected := func(e ast.Expr) {
			if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
				if s := p.Info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
					mark(s.Obj())
				}
			}
		}
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					st, ok := p.Info.Types[n].Type.Underlying().(*types.Struct)
					if !ok {
						break
					}
					for i, el := range n.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								mark(p.Info.Uses[id])
							}
						} else {
							mark(st.Field(i))
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						selected(lhs)
					}
				case *ast.IncDecStmt:
					selected(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						selected(n.X)
					}
				}
				return true
			})
		}
	}
	for f, name := range declared {
		_, pin := pinned[name]
		switch {
		case !set[f] && !pin:
			t.Errorf("%s is written only by its own package or by tests: make it a constant, delete it, or pin it here with its reason", name)
		case set[f] && pin:
			t.Errorf("%s is pinned as unset but non-test code outside its package writes it now: unpin it", name)
		}
		delete(pinned, name)
	}
	for name := range pinned {
		t.Errorf("%s is pinned but is no longer a field of a listed struct: unpin it", name)
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

// The citation forms TestDocReferencesResolve checks: a DESIGN.md section, a
// DESIGN.md numbered item (§N.K, §N item K), a titled paragraph of a section
// (§N, "Title"), and an EXPERIMENTS.md section by its ID. A bare §N is not
// matched: it also names the paper's sections.
var (
	designSecRe   = regexp.MustCompile(`DESIGN\.md §(\d+)(?:\.(\d+))?`)
	designItemRe  = regexp.MustCompile(`§(\d+),? items? (\d+)`)
	designTitleRe = regexp.MustCompile(`§(\d+)(?:\.\d+)?,? "([^"]+)"`)
	experimentRe  = regexp.MustCompile(`EXPERIMENTS\.md ([A-Z]\d+(?:\.\d+)?)\b`)
	commentLeadRe = regexp.MustCompile(`^\s*(?://|#)?\s*`)
)

// designDoc is DESIGN.md cut at its "## N." headings: per section, the
// numbers of its top-level numbered items and its text with lines joined.
type designDoc struct {
	items map[int]map[int]bool
	text  map[int]string
}

func parseDesign(src string) designDoc {
	d := designDoc{items: map[int]map[int]bool{}, text: map[int]string{}}
	sec := 0
	var lines []string
	flush := func() {
		if sec > 0 {
			d.text[sec] = strings.Join(strings.Fields(strings.Join(lines, " ")), " ")
		}
		lines = nil
	}
	headRe := regexp.MustCompile(`^## (\d+)\. `)
	itemRe := regexp.MustCompile(`^(\d+)\. `)
	for _, line := range strings.Split(src, "\n") {
		if strings.HasPrefix(line, "## ") {
			flush()
			sec = 0
			if m := headRe.FindStringSubmatch(line); m != nil {
				sec, _ = strconv.Atoi(m[1])
				d.items[sec] = map[int]bool{}
			}
			continue
		}
		if m := itemRe.FindStringSubmatch(line); m != nil && sec > 0 {
			k, _ := strconv.Atoi(m[1])
			d.items[sec][k] = true
		}
		lines = append(lines, line)
	}
	flush()
	return d
}

// TestDocReferencesResolve holds every citation of a DESIGN.md section, item
// or paragraph title and of an EXPERIMENTS.md section, in every Go, Markdown,
// shell and workflow file of the module, to a heading, numbered item or bold
// or italic paragraph lead that exists: a document shortened or renumbered
// without its citations fails here. A citation a comment wraps across lines
// is read joined. Section and ID citations hold in CHANGES.md too, since
// headings and IDs stay put; paragraph titles there are not checked.
func TestDocReferencesResolve(t *testing.T) {
	root, err := lint.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	read := func(name string) string {
		b, err := os.ReadFile(filepath.Join(root, name))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	design := parseDesign(read("DESIGN.md"))
	experiments := map[string]bool{}
	for _, line := range strings.Split(read("EXPERIMENTS.md"), "\n") {
		if heading, ok := strings.CutPrefix(line, "## "); ok {
			if id, _, ok := strings.Cut(heading, " — "); ok {
				experiments[id] = true
			}
		}
	}
	if len(design.text) < 16 || len(experiments) < 20 {
		t.Fatalf("parsed %d DESIGN.md sections and %d EXPERIMENTS.md IDs; the heading formats changed", len(design.text), len(experiments))
	}

	checked := 0
	err = filepath.WalkDir(root, func(path string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := e.Name()
		if e.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") && name != ".github" || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		switch filepath.Ext(name) {
		case ".go", ".md", ".sh", ".yml":
		default:
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		lines := strings.Split(string(b), "\n")
		for i, l := range lines {
			lines[i] = commentLeadRe.ReplaceAllString(l, "")
		}
		text := strings.Join(lines, " ")
		rel, _ := filepath.Rel(root, path)
		bad := func(cite, why string) { t.Errorf("%s: %q: %s", rel, cite, why) }
		for _, m := range designSecRe.FindAllStringSubmatch(text, -1) {
			checked++
			n, _ := strconv.Atoi(m[1])
			if _, ok := design.text[n]; !ok {
				bad(m[0], "DESIGN.md has no such section")
			} else if m[2] != "" {
				if k, _ := strconv.Atoi(m[2]); !design.items[n][k] {
					bad(m[0], "that DESIGN.md section has no such numbered item")
				}
			}
		}
		for _, m := range designItemRe.FindAllStringSubmatch(text, -1) {
			checked++
			n, _ := strconv.Atoi(m[1])
			if k, _ := strconv.Atoi(m[2]); !design.items[n][k] {
				bad(m[0], "DESIGN.md has no such numbered item")
			}
		}
		for _, m := range designTitleRe.FindAllStringSubmatch(text, -1) {
			if rel == "CHANGES.md" {
				continue // the log quotes a paragraph's title as it read when that change landed
			}
			checked++
			n, _ := strconv.Atoi(m[1])
			sec, title := design.text[n], strings.Join(strings.Fields(m[2]), " ")
			if !strings.Contains(sec, "**"+title+".**") && !strings.Contains(sec, "*"+title+".*") {
				bad(m[0], "no paragraph of that DESIGN.md section leads with this title")
			}
		}
		for _, m := range experimentRe.FindAllStringSubmatch(text, -1) {
			checked++
			if !experiments[m[1]] {
				bad(m[0], "EXPERIMENTS.md has no such section")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked < 100 {
		t.Fatalf("checked only %d citations; the file walk or the citation forms broke", checked)
	}
}
