package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrder is the interprocedural half of the locking story (DESIGN.md §6,
// §9). The per-package `locks` rule proves each struct guards its own fields;
// this rule proves the structs compose. Both read the same walk of each body
// (lockWalk) and name a lock the same way (lockSym: owning type + mutex
// field). This rule infers, per function, the set of locks acquired,
// propagates acquisition sets over the whole-program call graph, and builds
// the global lock-acquisition order graph. Three findings come out of it:
//
//  1. any cycle in the order graph — two locks each acquirable while the
//     other is held is a deadlock waiting for the right interleaving;
//  2. any edge contradicting the declared hierarchy manifest
//     (lockorder_manifest.go, cross-checked against DESIGN.md §6): acquiring
//     an outer-level lock while holding an inner-level one;
//  3. any re-entry through a locked callback: the manifest names the
//     functions that run a function argument with a lock held (the engine's
//     statement boundary), and nothing such an argument calls may acquire
//     that lock again — a second RLock behind a waiting writer deadlocks as
//     surely as a second Lock.
//
// All three print the full witness call path, from the function that holds
// the outer lock down to the statement that acquires the inner one.
//
// Approximations, chosen to stay sound for the declared hierarchy without
// drowning in noise: RLock and Lock are the same lock (reader/writer order
// still deadlocks); acquisitions reached only through function values are
// invisible (the call graph cannot see them) except where finding 3's
// manifest says who runs them; same-lock self-edges are skipped — ordering
// between two instances of one type (the pool's ascending-shard lockAll) is a
// runtime convention no static lattice can check; `defer`red unlocks keep the lock held for the rest of the body,
// which is exactly what the analysis wants.
type LockOrder struct{}

func (LockOrder) Name() string { return "lockorder" }
func (LockOrder) Doc() string {
	return "global lock-acquisition order over the call graph must be acyclic and respect the DESIGN.md §6 hierarchy manifest"
}

// Check is per-package and intentionally empty: LockOrder is a ProgramRule.
func (LockOrder) Check(pkg *Package) []Diagnostic { return nil }

// lockFacts is the per-function summary the rule infers.
type lockFacts struct {
	acquires map[lockSym]token.Pos // first acquisition site of each lock
	nested   []nestedAcq           // direct acquire-while-holding pairs
	calls    []heldCallSite        // call sites executed with locks held
}

type nestedAcq struct {
	outer, inner lockSym
	pos          token.Pos
}

type heldCallSite struct {
	held []lockSym
	pos  token.Pos
}

// lockEdge is one edge of the global order graph with its witness.
type lockEdge struct {
	outer, inner lockSym
	pos          token.Position // anchor: where the nesting is witnessed
	path         []string       // witness call path, outer holder first
}

func (r LockOrder) CheckProgram(prog *Program) []Diagnostic {
	facts, trans := lockSummaries(prog)
	edges := orderEdges(prog, facts, trans)

	var out []Diagnostic
	ranks := lockRanks()
	levels := lockHierarchy()
	for _, e := range sortedEdges(edges) {
		ro, okO := ranks[e.outer.Owner]
		ri, okI := ranks[e.inner.Owner]
		if okO && okI && ri < ro {
			out = append(out, Diagnostic{
				Rule: r.Name(), File: e.pos.Filename, Line: e.pos.Line, Col: e.pos.Column,
				Message: fmt.Sprintf("lock-order inversion: %s (level %q) is acquired while holding %s (level %q), contradicting the declared hierarchy %s",
					e.inner, levels[ri].Name, e.outer, levels[ro].Name, hierarchyString()),
				Path: e.path,
			})
		}
	}

	for _, cyc := range findLockCycles(edges) {
		first := edges[[2]string{cyc[0].String(), cyc[1].String()}]
		names := make([]string, 0, len(cyc))
		for _, s := range cyc {
			names = append(names, s.String())
		}
		var path []string
		for i := 0; i+1 < len(cyc); i++ {
			e := edges[[2]string{cyc[i].String(), cyc[i+1].String()}]
			path = append(path, fmt.Sprintf("%s → %s: %s", e.outer, e.inner, strings.Join(e.path, " -> ")))
		}
		out = append(out, Diagnostic{
			Rule: r.Name(), File: first.pos.Filename, Line: first.pos.Line, Col: first.pos.Column,
			Message: fmt.Sprintf("lock-order cycle: %s — a deadlock needs only the right interleaving", strings.Join(names, " → ")),
			Path:    path,
		})
	}
	return append(out, r.reentries(prog, facts, trans)...)
}

// reentries reports every call, made from inside a function argument of one
// of the manifest's locked callbacks, that can acquire the lock the callback
// already runs under. Function literals are searched lexically (nested ones
// included — a measure window inside a statement body is still inside the
// statement); a named function passed as the argument is checked by its own
// transitive acquisitions.
func (r LockOrder) reentries(prog *Program, facts map[*FuncNode]*lockFacts, trans map[*FuncNode]map[lockSym]bool) []Diagnostic {
	holders := lockedCallbacks()
	var out []Diagnostic
	for _, n := range prog.Nodes() {
		if facts[n] == nil {
			continue
		}
		report := func(pos token.Pos, holder string, sym lockSym, cn *FuncNode) {
			if !trans[cn][sym] { // also when cn is nil: a callee outside the program
				return
			}
			p := n.Pkg.Fset.Position(pos)
			chain := chaseAcquisition(prog, facts, trans, cn, sym, map[*FuncNode]bool{})
			out = append(out, Diagnostic{
				Rule: r.Name(), File: p.Filename, Line: p.Line, Col: p.Column,
				Message: fmt.Sprintf("re-entrant acquisition: %s runs its function argument holding %s, and the argument calls %s, which acquires it again",
					holder, sym, cn.Name()),
				Path: append([]string{witnessStep(n, pos)}, chain...),
			})
		}
		ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return true
			}
			site := prog.Site(n, call.Pos())
			if site == nil {
				return true
			}
			holder := site.callee.FullName()
			sym, ok := holders[holder]
			if !ok {
				return true
			}
			for _, arg := range call.Args {
				switch a := ast.Unparen(arg).(type) {
				case *ast.FuncLit:
					ast.Inspect(a.Body, func(y ast.Node) bool {
						inner, ok := y.(*ast.CallExpr)
						if !ok {
							return true
						}
						if s := prog.Site(n, inner.Pos()); s != nil {
							for _, callee := range prog.Callees(s) {
								report(inner.Pos(), holder, sym, prog.Node(callee))
							}
						}
						return true
					})
				case *ast.Ident:
					fn, _ := n.Pkg.Info.Uses[a].(*types.Func)
					report(a.Pos(), holder, sym, prog.Node(fn))
				case *ast.SelectorExpr:
					fn, _ := n.Pkg.Info.Uses[a.Sel].(*types.Func)
					report(a.Pos(), holder, sym, prog.Node(fn))
				}
			}
			return true
		})
	}
	return out
}

// lockOrderGraph infers per-function lock facts, propagates them over the
// call graph, and assembles the global acquisition-order edge set. Split
// from CheckProgram so the self-check can assert the analysis sees the
// engine's real nesting (an empty graph would make the rule pass vacuously).
func lockOrderGraph(prog *Program) map[[2]string]*lockEdge {
	facts, trans := lockSummaries(prog)
	return orderEdges(prog, facts, trans)
}

// lockSummaries infers every function's direct lock facts and its transitive
// acquisition set.
func lockSummaries(prog *Program) (map[*FuncNode]*lockFacts, map[*FuncNode]map[lockSym]bool) {
	facts := map[*FuncNode]*lockFacts{}
	for _, n := range prog.Nodes() {
		if n.Pkg.isToolOrDemo() {
			continue
		}
		facts[n] = gatherLockFacts(prog, n)
	}

	// Transitive acquisition sets: trans(f) = acquires(f) ∪ trans(callees),
	// to a fixpoint (the call graph has cycles; iteration is monotone over a
	// finite lattice, so it terminates).
	trans := map[*FuncNode]map[lockSym]bool{}
	for n, f := range facts {
		t := map[lockSym]bool{}
		for sym := range f.acquires {
			t[sym] = true
		}
		trans[n] = t
	}
	for changed := true; changed; {
		changed = false
		for _, n := range prog.Nodes() {
			if facts[n] == nil {
				continue
			}
			t := trans[n]
			for _, site := range n.Sites {
				for _, callee := range prog.Callees(site) {
					cn := prog.Node(callee)
					if cn == nil {
						continue
					}
					for sym := range trans[cn] {
						if !t[sym] {
							t[sym] = true
							changed = true
						}
					}
				}
			}
		}
	}

	return facts, trans
}

// orderEdges assembles the order graph. First witness wins; iteration order
// is deterministic (nodes in package/file order, sites in source order,
// callees and held sets sorted).
func orderEdges(prog *Program, facts map[*FuncNode]*lockFacts, trans map[*FuncNode]map[lockSym]bool) map[[2]string]*lockEdge {
	edges := map[[2]string]*lockEdge{}
	addEdge := func(outer, inner lockSym, pos token.Position, path []string) {
		if outer == inner {
			return
		}
		key := [2]string{outer.String(), inner.String()}
		if _, ok := edges[key]; !ok {
			edges[key] = &lockEdge{outer: outer, inner: inner, pos: pos, path: path}
		}
	}
	for _, n := range prog.Nodes() {
		f := facts[n]
		if f == nil {
			continue
		}
		for _, na := range f.nested {
			addEdge(na.outer, na.inner, n.Pkg.Fset.Position(na.pos), []string{witnessStep(n, na.pos)})
		}
		for _, hc := range f.calls {
			site := prog.Site(n, hc.pos)
			if site == nil {
				continue
			}
			for _, callee := range prog.Callees(site) {
				cn := prog.Node(callee)
				if cn == nil || facts[cn] == nil {
					continue
				}
				for _, inner := range sortedSyms(trans[cn]) {
					for _, outer := range hc.held {
						if outer == inner {
							continue
						}
						if _, ok := edges[[2]string{outer.String(), inner.String()}]; ok {
							continue
						}
						chain := chaseAcquisition(prog, facts, trans, cn, inner, map[*FuncNode]bool{})
						path := append([]string{witnessStep(n, hc.pos)}, chain...)
						addEdge(outer, inner, n.Pkg.Fset.Position(hc.pos), path)
					}
				}
			}
		}
	}
	return edges
}

// gatherLockFacts walks n's body in statement order and records its direct
// acquisitions, nesting pairs, and lock-held call sites.
func gatherLockFacts(prog *Program, n *FuncNode) *lockFacts {
	f := &lockFacts{acquires: map[lockSym]token.Pos{}}
	lockWalk(n.Pkg, n.Decl.Body, nil, lockEvents{
		acquire: func(call *ast.CallExpr, sym lockSym, held []lockSym) {
			if _, ok := f.acquires[sym]; !ok {
				f.acquires[sym] = call.Pos()
			}
			for _, outer := range held {
				if outer != sym {
					f.nested = append(f.nested, nestedAcq{outer: outer, inner: sym, pos: call.Pos()})
				}
			}
		},
		call: func(call *ast.CallExpr, held []lockSym) {
			if len(held) > 0 && prog.Site(n, call.Pos()) != nil {
				f.calls = append(f.calls, heldCallSite{held: held, pos: call.Pos()})
			}
		},
	})
	return f
}

// chaseAcquisition returns the witness chain from cn down to the function
// that directly acquires sym, following call edges (shortest-first by
// construction: a direct acquisition in cn wins over descending further).
func chaseAcquisition(prog *Program, facts map[*FuncNode]*lockFacts, trans map[*FuncNode]map[lockSym]bool, cn *FuncNode, sym lockSym, visited map[*FuncNode]bool) []string {
	if f := facts[cn]; f != nil {
		if pos, ok := f.acquires[sym]; ok {
			return []string{witnessStep(cn, pos)}
		}
	}
	visited[cn] = true
	for _, site := range cn.Sites {
		for _, callee := range prog.Callees(site) {
			nn := prog.Node(callee)
			if nn == nil || visited[nn] || facts[nn] == nil || !trans[nn][sym] {
				continue
			}
			if rest := chaseAcquisition(prog, facts, trans, nn, sym, visited); rest != nil {
				return append([]string{witnessStep(cn, site.Pos)}, rest...)
			}
		}
	}
	return nil
}

// findLockCycles returns every elementary cycle representative of the order
// graph's nontrivial strongly connected components, each as a lock sequence
// starting and ending at the component's smallest lock. One cycle per SCC is
// reported: fixing it re-runs the analysis, so enumeration is unnecessary.
func findLockCycles(edges map[[2]string]*lockEdge) [][]lockSym {
	adj := map[lockSym][]lockSym{}
	nodes := map[lockSym]bool{}
	for _, e := range edges {
		adj[e.outer] = append(adj[e.outer], e.inner)
		nodes[e.outer] = true
		nodes[e.inner] = true
	}
	for k := range adj {
		sort.Slice(adj[k], func(i, j int) bool { return adj[k][i].String() < adj[k][j].String() })
	}
	sccs := tarjanSCC(nodes, adj)
	var out [][]lockSym
	for _, scc := range sccs {
		if len(scc) < 2 {
			continue
		}
		inSCC := map[lockSym]bool{}
		for _, s := range scc {
			inSCC[s] = true
		}
		start := scc[0]
		for _, s := range scc[1:] {
			if s.String() < start.String() {
				start = s
			}
		}
		if cyc := cycleFrom(start, start, adj, inSCC, map[lockSym]bool{}, []lockSym{start}); cyc != nil {
			out = append(out, cyc)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0].String() < out[j][0].String() })
	return out
}

// cycleFrom finds a deterministic path cur → … → target within the SCC.
func cycleFrom(cur, target lockSym, adj map[lockSym][]lockSym, inSCC, visited map[lockSym]bool, path []lockSym) []lockSym {
	for _, next := range adj[cur] {
		if next == target && len(path) > 1 {
			return append(path, target)
		}
		if !inSCC[next] || visited[next] || next == target {
			continue
		}
		visited[next] = true
		if cyc := cycleFrom(next, target, adj, inSCC, visited, append(path, next)); cyc != nil {
			return cyc
		}
	}
	return nil
}

// tarjanSCC computes strongly connected components (iterating nodes in
// sorted order so output is deterministic).
func tarjanSCC(nodes map[lockSym]bool, adj map[lockSym][]lockSym) [][]lockSym {
	sorted := make([]lockSym, 0, len(nodes))
	for n := range nodes {
		sorted = append(sorted, n)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].String() < sorted[j].String() })

	index := map[lockSym]int{}
	low := map[lockSym]int{}
	onStack := map[lockSym]bool{}
	var stack []lockSym
	var sccs [][]lockSym
	next := 0

	var strongconnect func(v lockSym)
	strongconnect = func(v lockSym) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []lockSym
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			sccs = append(sccs, scc)
		}
	}
	for _, v := range sorted {
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}
	return sccs
}

func sortedSyms(set map[lockSym]bool) []lockSym {
	out := make([]lockSym, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

func sortedEdges(edges map[[2]string]*lockEdge) []*lockEdge {
	keys := make([][2]string, 0, len(edges))
	for k := range edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	out := make([]*lockEdge, len(keys))
	for i, k := range keys {
		out[i] = edges[k]
	}
	return out
}
