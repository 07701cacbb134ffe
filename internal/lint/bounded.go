package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Bounded enforces termination evidence on retry/wait loops: a for-loop that
// consumes typed-transient faults (fault.IsTransient, fault.Injector methods)
// or advances the sim clock (sim.Clock.AdvanceTo) must carry a
// compile-visible bound — a comparison against a compile-time constant (a
// retry cap), a sim.Time/sim.Duration comparison (a deadline), or a len/cap
// bounded condition. An unbounded retry loop is how a transient fault becomes
// a hang; the chaos soak only catches the spins it happens to trigger, this
// rule catches the pattern at analysis time. Range loops are inherently
// bounded and exempt.
type Bounded struct{}

func (Bounded) Name() string { return "bounded" }
func (Bounded) Doc() string {
	return "retry/wait loops consuming transient faults or advancing the sim clock must carry a compile-visible bound"
}

func (r Bounded) Check(pkg *Package) []Diagnostic {
	if pkg.isToolOrDemo() || pkg.pathIn("internal/lint") {
		return nil
	}
	var out []Diagnostic
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			loop, ok := n.(*ast.ForStmt)
			if !ok {
				return true
			}
			trigger := boundTrigger(pkg, loop)
			if trigger == "" || boundEvidence(pkg, loop) {
				return true
			}
			out = append(out, diag(pkg, r.Name(), loop,
				"retry/wait loop calls %s with no compile-visible bound: cap the attempts with a constant, compare against a sim deadline, or annotate //speclint:allow bounded -- <why>",
				trigger))
			return true
		})
	}
	return out
}

// boundTrigger reports the qualified name of the first call in the loop's
// condition or body (not nested loops or function literals, which have their
// own iteration structure) that makes it a retry/wait loop: consuming a
// typed-transient fault or advancing the simulated clock.
func boundTrigger(pkg *Package, loop *ast.ForStmt) string {
	found := ""
	scan := func(root ast.Node) {
		if root == nil || found != "" {
			return
		}
		inspectShallow(root, func(n ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok || found != "" {
				return
			}
			fn := calleeFunc(pkg, call)
			if fn == nil || fn.Pkg() == nil {
				return
			}
			mod := moduleOf(pkg.Path)
			switch {
			case fn.Pkg().Path() == mod+"/internal/fault" && fn.Name() == "IsTransient":
				found = "fault.IsTransient"
			case recvIs(fn, mod+"/internal/fault", "Injector"):
				found = "fault.Injector." + fn.Name()
			case recvIs(fn, mod+"/internal/sim", "Clock") && fn.Name() == "AdvanceTo":
				found = "sim.Clock." + fn.Name()
			}
		})
	}
	scan(loop.Cond)
	scan(loop.Body)
	return found
}

// boundEvidence reports whether the loop's condition or body (again excluding
// nested loops and function literals) shows a compile-visible bound: a
// comparison with a compile-time constant operand, a comparison of
// sim.Time/sim.Duration values (a deadline), or a len/cap-bounded condition.
func boundEvidence(pkg *Package, loop *ast.ForStmt) bool {
	found := false
	scan := func(root ast.Node) {
		if root == nil || found {
			return
		}
		inspectShallow(root, func(n ast.Node) {
			cmp, ok := n.(*ast.BinaryExpr)
			if !ok || found {
				return
			}
			switch cmp.Op {
			case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
			default:
				return
			}
			for _, e := range []ast.Expr{cmp.X, cmp.Y} {
				if tv, ok := pkg.Info.Types[e]; ok && tv.Value != nil {
					found = true // constant cap
					return
				}
				if isSimInstant(pkg, e) {
					found = true // deadline comparison
					return
				}
				if call, ok := ast.Unparen(e).(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok && (id.Name == "len" || id.Name == "cap") {
						found = true // draining a finite structure
						return
					}
				}
			}
		})
	}
	scan(loop.Cond)
	scan(loop.Body)
	return found
}

// inspectShallow walks root like ast.Inspect but does not descend into nested
// for/range statements or function literals: their iteration structure is
// judged on its own.
func inspectShallow(root ast.Node, visit func(ast.Node)) {
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			return true
		}
		if n != root {
			switch n.(type) {
			case *ast.ForStmt, *ast.RangeStmt, *ast.FuncLit:
				return false
			}
		}
		visit(n)
		return true
	})
}

// recvIs reports whether fn is a method whose (possibly pointer) receiver is
// the named type pkgPath.typeName.
func recvIs(fn *types.Func, pkgPath, typeName string) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == pkgPath && named.Obj().Name() == typeName
}

// isSimInstant reports whether e has type sim.Time or sim.Duration.
func isSimInstant(pkg *Package, e ast.Expr) bool {
	tv, ok := pkg.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	named, ok := tv.Type.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	if named.Obj().Pkg().Path() != moduleOf(pkg.Path)+"/internal/sim" {
		return false
	}
	name := named.Obj().Name()
	return name == "Time" || name == "Duration"
}
