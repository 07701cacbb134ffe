package lint

import (
	"go/ast"
	"go/types"
	"sort"
)

// The lock walker both lock rules read: `locks` asks it which receiver
// fields a method touches with which locks held, `lockorder` which locks a
// function takes while holding which others, and which calls it makes with
// locks held.

// lockSym identifies one lock: the named type (or package) owning the mutex
// plus the mutex field name.
type lockSym struct {
	Owner string // "pkgpath.Type", or "pkgpath" for a package-level mutex var
	Field string
}

func (l lockSym) String() string { return l.Owner + "." + l.Field }

// typeOwner is the lockSym.Owner of a mutex field of the named type obj.
func typeOwner(obj types.Object) string { return obj.Pkg().Path() + "." + obj.Name() }

var lockAcquire = map[string]bool{"Lock": true, "RLock": true, "TryLock": true, "TryRLock": true}
var lockRelease = map[string]bool{"Unlock": true, "RUnlock": true}

// lockEvents are the hooks lockWalk calls; a nil hook is skipped. held is the
// sorted set of locks held at that point.
type lockEvents struct {
	// acquire fires at each acquisition, before sym joins held.
	acquire func(call *ast.CallExpr, sym lockSym, held []lockSym)
	// call fires at every call that is not a lock or unlock.
	call func(call *ast.CallExpr, held []lockSym)
	// field fires at every struct-field selection outside function literals
	// and go statements, whose bodies run under their caller's locking, not
	// this body's. write marks the field an assignment, ++/-- or range
	// clause writes; the expressions around it (its operand, any index) are
	// reads.
	field func(sel *ast.SelectorExpr, write bool, held []lockSym)
}

// lockWalk traverses body in statement order tracking the multiset of held
// locks, starting from start. It is branch-aware in the one way that matters
// for the common guard-clause shape: an if-body that cannot fall through does
// not leak its lock-state changes (an early `mu.Unlock(); return`) into the
// path that continues, and every switch or select clause starts from the
// state before the statement. Function literals and `go` statements are
// walked with an empty held set (they run under their own locking context),
// and `defer`red calls are skipped — a deferred unlock releases at exit, not
// at its textual position, so the lock correctly stays held for the rest of
// the walk.
func lockWalk(pkg *Package, body *ast.BlockStmt, start []lockSym, ev lockEvents) {
	held := map[lockSym]int{}
	for _, sym := range start {
		held[sym]++
	}
	nested := false // inside a function literal or go statement
	snapshot := func() []lockSym {
		var out []lockSym
		for sym, n := range held {
			if n > 0 {
				out = append(out, sym)
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
		return out
	}
	clone := func(m map[lockSym]int) map[lockSym]int {
		cp := make(map[lockSym]int, len(m))
		for k, v := range m {
			cp[k] = v
		}
		return cp
	}
	fresh := func(f func()) {
		savedHeld, savedNested := held, nested
		held, nested = map[lockSym]int{}, true
		f()
		held, nested = savedHeld, savedNested
	}
	isField := func(sel *ast.SelectorExpr) bool {
		s := pkg.Info.Selections[sel]
		return s != nil && s.Kind() == types.FieldVal
	}
	field := func(sel *ast.SelectorExpr, write bool) {
		if ev.field != nil && !nested && isField(sel) {
			ev.field(sel, write, snapshot())
		}
	}

	var walkExpr func(e ast.Expr)
	var walkStmt func(s ast.Stmt)
	var walkBody func(list []ast.Stmt)

	walkExpr = func(e ast.Expr) {
		if e == nil {
			return
		}
		ast.Inspect(e, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				fresh(func() { walkBody(n.Body.List) })
				return false
			case *ast.CallExpr:
				if sym, acquire, ok := lockRefAt(pkg, n); ok {
					if acquire {
						if ev.acquire != nil {
							ev.acquire(n, sym, snapshot())
						}
						held[sym]++
					} else if held[sym] > 0 {
						held[sym]--
					}
					return false
				}
				if ev.call != nil {
					ev.call(n, snapshot())
				}
			case *ast.SelectorExpr:
				field(n, false)
			}
			return true
		})
	}
	write := func(target ast.Expr) {
		var index []ast.Expr
		e := ast.Unparen(target)
		for {
			if x, ok := e.(*ast.IndexExpr); ok {
				index = append(index, x.Index)
				e = ast.Unparen(x.X)
			} else if x, ok := e.(*ast.StarExpr); ok {
				e = ast.Unparen(x.X)
			} else {
				break
			}
		}
		if sel, ok := e.(*ast.SelectorExpr); ok && isField(sel) {
			field(sel, true)
			e = sel.X
		}
		walkExpr(e)
		for i := len(index) - 1; i >= 0; i-- {
			walkExpr(index[i])
		}
	}
	// clauses walks a switch or select body.
	clauses := func(body *ast.BlockStmt) {
		before := clone(held)
		for _, c := range body.List {
			held = clone(before)
			switch c := c.(type) {
			case *ast.CaseClause:
				for _, e := range c.List {
					walkExpr(e)
				}
				walkBody(c.Body)
			case *ast.CommClause:
				walkStmt(c.Comm)
				walkBody(c.Body)
			}
		}
		held = before
	}

	walkBody = func(list []ast.Stmt) {
		for _, s := range list {
			walkStmt(s)
		}
	}
	walkStmt = func(s ast.Stmt) {
		switch s := s.(type) {
		case nil:
		case *ast.BlockStmt:
			walkBody(s.List)
		case *ast.ExprStmt:
			walkExpr(s.X)
		case *ast.AssignStmt:
			for _, rhs := range s.Rhs {
				walkExpr(rhs)
			}
			for _, lhs := range s.Lhs {
				write(lhs)
			}
		case *ast.IncDecStmt:
			write(s.X)
		case *ast.DeferStmt:
			// Runs at exit, not here; a deferred Unlock must not release now.
		case *ast.GoStmt:
			fresh(func() { walkExpr(s.Call) })
		case *ast.ReturnStmt:
			for _, res := range s.Results {
				walkExpr(res)
			}
		case *ast.IfStmt:
			walkStmt(s.Init)
			walkExpr(s.Cond)
			before := clone(held)
			walkStmt(s.Body)
			if terminates(s.Body) {
				held = before
			}
			if s.Else != nil {
				beforeElse := clone(held)
				walkStmt(s.Else)
				if terminates(s.Else) {
					held = beforeElse
				}
			}
		case *ast.ForStmt:
			walkStmt(s.Init)
			walkExpr(s.Cond)
			walkStmt(s.Body)
			walkStmt(s.Post)
		case *ast.RangeStmt:
			walkExpr(s.X)
			write(s.Key)
			write(s.Value)
			walkStmt(s.Body)
		case *ast.SwitchStmt:
			walkStmt(s.Init)
			walkExpr(s.Tag)
			clauses(s.Body)
		case *ast.TypeSwitchStmt:
			walkStmt(s.Init)
			walkStmt(s.Assign)
			clauses(s.Body)
		case *ast.SelectStmt:
			clauses(s.Body)
		case *ast.LabeledStmt:
			walkStmt(s.Stmt)
		case *ast.DeclStmt:
			if gd, ok := s.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						for _, v := range vs.Values {
							walkExpr(v)
						}
					}
				}
			}
		case *ast.SendStmt:
			walkExpr(s.Chan)
			walkExpr(s.Value)
		}
	}
	walkBody(body.List)
}

// terminates reports whether control cannot fall out of the bottom of stmt:
// it ends in return, a branch, or a panic call.
func terminates(stmt ast.Stmt) bool {
	switch s := stmt.(type) {
	case *ast.BlockStmt:
		if len(s.List) == 0 {
			return false
		}
		return terminates(s.List[len(s.List)-1])
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.IfStmt:
		return s.Else != nil && terminates(s.Body) && terminates(s.Else)
	}
	return false
}

// lockRefAt reports whether call is a sync.Mutex/RWMutex (or promoted
// embedded mutex) Lock/RLock/TryLock/Unlock/RUnlock on a nameable lock: a
// mutex field of a named struct, or a package-level mutex var. Locally
// declared mutexes and mutexes reached through unnameable expressions are
// untracked (they cannot participate in a cross-function ordering).
func lockRefAt(pkg *Package, call *ast.CallExpr) (sym lockSym, acquire bool, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return lockSym{}, false, false
	}
	name := sel.Sel.Name
	if !lockAcquire[name] && !lockRelease[name] {
		return lockSym{}, false, false
	}
	selection := pkg.Info.Selections[sel]
	if selection == nil || selection.Kind() != types.MethodVal {
		return lockSym{}, false, false
	}
	obj := selection.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return lockSym{}, false, false
	}
	x := ast.Unparen(sel.X)
	if isSyncMutexType(pkg.Info.TypeOf(x)) {
		switch inner := x.(type) {
		case *ast.SelectorExpr: // owner.muField.Lock()
			if named, okN := derefNamed(pkg.Info.TypeOf(inner.X)); okN && named.Obj().Pkg() != nil {
				return lockSym{Owner: typeOwner(named.Obj()), Field: inner.Sel.Name}, lockAcquire[name], true
			}
		case *ast.Ident: // package-level `var mu sync.Mutex`
			if o := pkg.Info.Uses[inner]; o != nil && o.Pkg() != nil && o.Parent() == o.Pkg().Scope() {
				return lockSym{Owner: o.Pkg().Path(), Field: inner.Name}, lockAcquire[name], true
			}
		}
		return lockSym{}, false, false
	}
	// Promoted method on a struct embedding the mutex: owner.Lock().
	if named, okN := derefNamed(pkg.Info.TypeOf(x)); okN && named.Obj().Pkg() != nil {
		if st, okS := named.Underlying().(*types.Struct); okS {
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if f.Embedded() && isSyncMutexType(f.Type()) {
					return lockSym{Owner: typeOwner(named.Obj()), Field: f.Name()}, lockAcquire[name], true
				}
			}
		}
	}
	return lockSym{}, false, false
}

// isSyncMutexType reports whether t (possibly behind a pointer) is
// sync.Mutex or sync.RWMutex.
func isSyncMutexType(t types.Type) bool {
	if t == nil {
		return false
	}
	named, ok := derefNamed(t)
	if !ok {
		return false
	}
	o := named.Obj()
	return o.Pkg() != nil && o.Pkg().Path() == "sync" && (o.Name() == "Mutex" || o.Name() == "RWMutex")
}
