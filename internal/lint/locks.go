package lint

import (
	"go/ast"
	"go/types"
	"slices"
	"sort"
)

// LockDiscipline enforces the substrate's locking conventions (DESIGN.md §6):
// a struct carrying a sync.Mutex/RWMutex guards its mutable state with it.
// The guarded field set is inferred, not declared — a field counts as
// guarded when some method writes it while holding one of the struct's
// locks. Two checks follow:
//
//  1. an exported method must not touch a guarded field before acquiring a
//     lock (exported methods are the concurrent API surface; unexported
//     helpers may rely on a caller's lock);
//  2. a method whose name ends in "Locked" documents "caller holds the
//     lock" — it holds it from its first statement, and must never acquire
//     the receiver's lock while holding it, which would self-deadlock on a
//     plain Mutex.
//
// A struct that declares any *Locked helper opts into strict discipline:
// the naming convention makes lock ownership explicit, so an unexported
// method that relies on the caller's lock must say so in its name. On such
// structs (the sharded buffer pool's shard is the canonical case) check 1
// extends to every non-Locked method, exported or not.
//
// Each method body is walked once, by lockWalk. Only accesses outside
// function literals and go statements count: those bodies run under their
// caller's locking, not this method's.
type LockDiscipline struct{}

func (LockDiscipline) Name() string { return "locks" }
func (LockDiscipline) Doc() string {
	return "exported methods lock before touching guarded fields; *Locked helpers never re-lock; structs with *Locked helpers hold all non-Locked methods to the exported standard"
}

func (r LockDiscipline) Check(pkg *Package) []Diagnostic {
	if pkg.isToolOrDemo() {
		return nil
	}
	var out []Diagnostic
	for _, st := range lockedStructs(pkg) {
		guarded := st.guarded()
		if len(guarded) == 0 {
			continue
		}
		strict := slices.ContainsFunc(st.methods, func(m *methodInfo) bool { return hasLockedSuffix(m.decl.Name.Name) })
		for _, m := range st.methods {
			name := m.decl.Name.Name
			if hasLockedSuffix(name) {
				for _, call := range m.relocks {
					out = append(out, diag(pkg, r.Name(), call,
						"%s.%s acquires the receiver's lock, but its Locked suffix promises the caller already holds it", st.name, name))
				}
				continue
			}
			if !ast.IsExported(name) && !strict {
				continue
			}
			reported := map[string]bool{}
			for _, acc := range m.accesses {
				if acc.held || !guarded[acc.field] || reported[acc.field] {
					continue
				}
				reported[acc.field] = true
				out = append(out, diag(pkg, r.Name(), acc.node,
					"%s.%s touches guarded field %q before acquiring the lock", st.name, name, acc.field))
			}
		}
	}
	return out
}

func hasLockedSuffix(name string) bool {
	const suf = "Locked"
	return len(name) > len(suf) && name[len(name)-len(suf):] == suf
}

// lockedStruct is a struct type with at least one mutex field, plus its
// methods.
type lockedStruct struct {
	name    string
	owner   string    // the lockSym.Owner of the struct's own mutexes
	locks   []lockSym // the struct's own mutexes
	methods []*methodInfo
}

// methodInfo is one method of a lockedStruct and what lockWalk saw in its
// body.
type methodInfo struct {
	decl     *ast.FuncDecl
	accesses []access        // receiver-field reads and writes, in walk order
	relocks  []*ast.CallExpr // receiver-lock acquisitions with one already held
}

// access is one read or write of a receiver field.
type access struct {
	field string
	write bool
	held  bool // one of the receiver's locks is held
	node  ast.Node
}

// holds reports whether one of held is a lock of the struct's type.
func (st *lockedStruct) holds(held []lockSym) bool {
	return slices.ContainsFunc(held, func(s lockSym) bool { return s.Owner == st.owner })
}

// guarded is the inferred guarded field set: every field some method writes
// while holding the struct's lock.
func (st *lockedStruct) guarded() map[string]bool {
	guarded := map[string]bool{}
	for _, m := range st.methods {
		for _, acc := range m.accesses {
			if acc.write && acc.held {
				guarded[acc.field] = true
			}
		}
	}
	return guarded
}

// lockedStructs finds every struct in pkg with a mutex field and walks each
// of its methods, in declaration order.
func lockedStructs(pkg *Package) []*lockedStruct {
	byType := map[types.Object]*lockedStruct{}
	var order []*lockedStruct
	scope := pkg.Pkg.Scope()
	names := scope.Names()
	sort.Strings(names)
	for _, n := range names {
		tn, ok := scope.Lookup(n).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		ls := &lockedStruct{name: n, owner: typeOwner(tn)}
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); isSyncMutexType(f.Type()) {
				ls.locks = append(ls.locks, lockSym{Owner: ls.owner, Field: f.Name()})
			}
		}
		if len(ls.locks) > 0 {
			byType[tn] = ls
			order = append(order, ls)
		}
	}
	if len(order) == 0 {
		return nil
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil || len(fd.Recv.List) == 0 {
				continue
			}
			field := fd.Recv.List[0]
			if len(field.Names) == 0 {
				continue
			}
			recv := pkg.Info.Defs[field.Names[0]]
			if recv == nil {
				continue
			}
			named, ok := derefNamed(recv.Type())
			if !ok {
				continue
			}
			if ls, ok := byType[named.Obj()]; ok {
				ls.methods = append(ls.methods, ls.walk(pkg, fd, recv))
			}
		}
	}
	return order
}

// walk records one method's receiver-field accesses and relocks. A *Locked
// method holds the struct's locks from its first statement.
func (st *lockedStruct) walk(pkg *Package, fd *ast.FuncDecl, recv types.Object) *methodInfo {
	m := &methodInfo{decl: fd}
	var start []lockSym
	if hasLockedSuffix(fd.Name.Name) {
		start = st.locks
	}
	lockWalk(pkg, fd.Body, start, lockEvents{
		acquire: func(call *ast.CallExpr, sym lockSym, held []lockSym) {
			if sym.Owner == st.owner && st.holds(held) {
				m.relocks = append(m.relocks, call)
			}
		},
		field: func(sel *ast.SelectorExpr, write bool, held []lockSym) {
			// Only the receiver's own non-mutex fields, not promoted ones.
			base, ok := ast.Unparen(sel.X).(*ast.Ident)
			s := pkg.Info.Selections[sel]
			if !ok || pkg.Info.Uses[base] != recv || len(s.Index()) != 1 || isSyncMutexType(s.Obj().Type()) {
				return
			}
			m.accesses = append(m.accesses, access{field: sel.Sel.Name, write: write, held: st.holds(held), node: sel})
		},
	})
	return m
}
