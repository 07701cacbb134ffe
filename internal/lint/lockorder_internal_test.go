package lint

import (
	"go/types"
	"strings"
	"sync"
	"testing"
)

var (
	moduleOnce    sync.Once
	modulePkgList []*Package
	moduleLoadErr error
)

// loadModulePkgs loads the whole module once for the in-package tests.
func loadModulePkgs(t *testing.T) []*Package {
	t.Helper()
	moduleOnce.Do(func() {
		root, err := FindModuleRoot(".")
		if err != nil {
			moduleLoadErr = err
			return
		}
		l, err := NewLoader(root)
		if err != nil {
			moduleLoadErr = err
			return
		}
		modulePkgList, moduleLoadErr = l.LoadModule()
	})
	if moduleLoadErr != nil {
		t.Fatal(moduleLoadErr)
	}
	return modulePkgList
}

// TestLockOrderManifestTypesExist checks every type listed in the hierarchy
// manifest still resolves in the module and still carries a sync mutex
// field, so renaming HeapFile (say) cannot silently un-rank its lock.
func TestLockOrderManifestTypesExist(t *testing.T) {
	pkgs := loadModulePkgs(t)
	byPath := map[string]*Package{}
	for _, p := range pkgs {
		byPath[p.Path] = p
	}
	for _, lvl := range lockHierarchy() {
		for _, full := range lvl.Types {
			i := strings.LastIndex(full, ".")
			if i < 0 {
				t.Errorf("manifest entry %q is not pkgpath.Type", full)
				continue
			}
			pkgPath, typeName := full[:i], full[i+1:]
			p := byPath[pkgPath]
			if p == nil {
				t.Errorf("manifest level %q: package %s not in module", lvl.Name, pkgPath)
				continue
			}
			obj := p.Pkg.Scope().Lookup(typeName)
			if obj == nil {
				t.Errorf("manifest level %q: type %s not found", lvl.Name, full)
				continue
			}
			st, ok := obj.Type().Underlying().(*types.Struct)
			if !ok {
				t.Errorf("manifest type %s is not a struct", full)
				continue
			}
			hasMu := false
			for i := 0; i < st.NumFields(); i++ {
				if isSyncMutexType(st.Field(i).Type()) {
					hasMu = true
				}
			}
			if !hasMu {
				t.Errorf("manifest type %s carries no sync.Mutex/RWMutex field", full)
			}
		}
	}
}

// TestLockedCallbacksExist checks every function the manifest says runs its
// argument under a lock still exists, still takes a function argument, and
// still reaches an acquisition of that lock — so renaming statement (say)
// cannot silently switch the re-entry check off.
func TestLockedCallbacksExist(t *testing.T) {
	prog := NewProgram(loadModulePkgs(t))
	_, trans := lockSummaries(prog)
	byName := map[string]*FuncNode{}
	for _, n := range prog.Nodes() {
		byName[n.Name()] = n
	}
	for name, sym := range lockedCallbacks() {
		n := byName[name]
		if n == nil {
			t.Errorf("manifest function %s not in module", name)
			continue
		}
		if !trans[n][sym] {
			t.Errorf("%s never acquires %s", name, sym)
		}
		takesFunc := false
		params := n.Fn.Type().(*types.Signature).Params()
		for i := 0; i < params.Len(); i++ {
			if _, ok := params.At(i).Type().Underlying().(*types.Signature); ok {
				takesFunc = true
			}
		}
		if !takesFunc {
			t.Errorf("%s takes no function argument", name)
		}
	}
}

// TestLockOrderSeesEngineNesting guards against the vacuous-pass failure
// mode: a bug that empties the inferred fact set would make the hierarchy
// proof pass trivially. The analysis must observe the engine's real
// nesting, including the pool-above-disk edge the hierarchy exists to
// police, and a nontrivially sized order graph.
func TestLockOrderSeesEngineNesting(t *testing.T) {
	prog := NewProgram(loadModulePkgs(t))
	edges := lockOrderGraph(prog)
	want := [][2]string{
		{"specdb/internal/buffer.shard.mu", "specdb/internal/storage.DiskManager.mu"},
		{"specdb/internal/engine.Engine.stmtMu", "specdb/internal/catalog.Catalog.mu"},
		{"specdb/internal/catalog.Catalog.mu", "specdb/internal/btree.BTree.mu"},
		{"specdb/internal/storage.HeapFile.mu", "specdb/internal/buffer.shard.mu"},
	}
	for _, w := range want {
		if edges[w] == nil {
			t.Errorf("expected lock-order edge %s → %s missing; the fact inference may have gone vacuous", w[0], w[1])
		}
	}
	if len(edges) < 40 {
		t.Errorf("only %d lock-order edges inferred on HEAD; expected a rich graph", len(edges))
	}
}

// TestLocksSeesGuardedFields guards the `locks` rule the same way: its zero
// findings on HEAD must come from every method locking in time, not from an
// empty access stream leaving nothing guarded. The pool's shard (strict
// discipline, *Locked helpers) and the speculation ledger (plain exported
// methods) must each show the fields their locked writers write.
func TestLocksSeesGuardedFields(t *testing.T) {
	want := map[string][]string{
		"specdb/internal/buffer.shard": {"hits", "frames"},
		"specdb/internal/core.Ledger":  {"assets", "misuses"},
	}
	seen := 0
	for _, pkg := range loadModulePkgs(t) {
		for _, st := range lockedStructs(pkg) {
			fields, ok := want[st.owner]
			if !ok {
				continue
			}
			seen++
			guarded := st.guarded()
			for _, f := range fields {
				if !guarded[f] {
					t.Errorf("%s.%s not inferred as guarded (guarded set %v); the access stream may have gone vacuous", st.owner, f, guarded)
				}
			}
		}
	}
	if seen != len(want) {
		t.Errorf("found %d of the %d expected locked structs", seen, len(want))
	}
}

// TestMeterFlowSeesDiskSites guards meterflow's vacuous-pass mode the same
// way: its zero findings on HEAD must come from every path being priced,
// not from the analysis failing to find the disk call sites. The fault
// wrapper is the canonical function that touches the disk without charging
// in-function — its presence proves the reverse reachability walk actually
// runs and terminates at the charging pool callers.
func TestMeterFlowSeesDiskSites(t *testing.T) {
	prog := NewProgram(loadModulePkgs(t))
	sites := 0
	unpriced := map[string]bool{}
	for _, n := range prog.Nodes() {
		if n.Pkg.isToolOrDemo() || n.Pkg.pathIn("internal/lint") {
			continue
		}
		for _, s := range n.Sites {
			if !s.DiskIO {
				continue
			}
			sites++
			if !n.ChargesMeter {
				unpriced[n.Name()] = true
			}
		}
	}
	if sites < 4 {
		t.Errorf("only %d disk Read/Write sites found on HEAD; site detection may have gone vacuous", sites)
	}
	for _, fn := range []string{"(*specdb/internal/fault.Disk).Read", "(*specdb/internal/fault.Disk).Write"} {
		if !unpriced[fn] {
			t.Errorf("%s not seen as an unpriced disk-calling function; the reachability walk has nothing to prove", fn)
		}
	}
}
