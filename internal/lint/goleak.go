package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GoLeakAnalyzer demands a provable stop path for every `go` statement
// in the concurrent packages (engine, server). A goroutine that outlives
// its owner — a GC sweep after Shutdown, a batch-stream waiter after
// its client disconnects — is exactly the failure mode the lifecycle
// tests race to catch dynamically; this pins it statically.
//
// Accepted stop-path evidence, looked for in the spawned function body
// and in everything it (statically) calls, up to a small depth:
//
//   - a receive from (or range over) a channel whose element type is
//     struct{} — the signal-channel idiom, covering both explicit
//     done/stop channels and ctx.Done();
//   - sync.WaitGroup pairing: an Add on the same WaitGroup lexically
//     before the `go` statement in the spawning function, with a Done
//     (usually deferred) inside the spawned work.
//
// Anything else needs `//lint:stopped <why>` on the `go` statement
// naming the joining mechanism.
var GoLeakAnalyzer = GoLeakAnalyzerFor(
	ModulePath+"/internal/engine",
	ModulePath+"/internal/server",
)

// GoLeakAnalyzerFor builds a goleak analyzer scoped to the given import
// paths.
func GoLeakAnalyzerFor(importPaths ...string) *ProgramAnalyzer {
	a := &ProgramAnalyzer{
		Name:          "goleak",
		Doc:           "every go statement needs a provable stop path (signal-channel receive or WaitGroup pairing)",
		Justification: "stopped",
	}
	a.Run = func(pass *ProgramPass) error {
		for _, path := range importPaths {
			pkg := pass.Prog.PackageFor(path)
			if pkg == nil {
				continue // package may not exist in a fixture module
			}
			checkGoLeaks(pass, pkg)
		}
		return nil
	}
	return a
}

// goStmtScanDepth bounds how far past the spawned function the stop-path
// search follows static calls. Depth 3 covers the worker-calls-loop-
// calls-step shape without letting evidence leak in from half the module.
const goStmtScanDepth = 3

func checkGoLeaks(pass *ProgramPass, pkg *Package) {
	g := pass.Prog.Graph
	for _, f := range pkg.Files {
		// Track the enclosing function body stack so WaitGroup Add
		// pairing can look at the spawner.
		var bodyStack []*ast.BlockStmt
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncDecl:
				if x.Body == nil {
					return false
				}
				bodyStack = append(bodyStack, x.Body)
				ast.Inspect(x.Body, visit)
				bodyStack = bodyStack[:len(bodyStack)-1]
				return false
			case *ast.FuncLit:
				bodyStack = append(bodyStack, x.Body)
				ast.Inspect(x.Body, visit)
				bodyStack = bodyStack[:len(bodyStack)-1]
				return false
			case *ast.GoStmt:
				var enclosing *ast.BlockStmt
				if len(bodyStack) > 0 {
					enclosing = bodyStack[len(bodyStack)-1]
				}
				checkGoStmt(pass, g, pkg, x, enclosing)
				return true
			}
			return true
		}
		ast.Inspect(f, visit)
	}
}

// checkGoStmt proves (or fails to prove) a stop path for one go
// statement.
func checkGoStmt(pass *ProgramPass, g *CallGraph, pkg *Package, stmt *ast.GoStmt, enclosing *ast.BlockStmt) {
	bodies, resolved := spawnedBodies(g, pkg, stmt)
	if !resolved {
		pass.Reportf(stmt.Pos(),
			"spawn a named function or literal whose stop path the analyzer can see, or add `//lint:stopped <why>`",
			"go statement through an opaque function value: stop path is unprovable")
		return
	}

	for _, b := range bodies {
		if hasSignalReceive(b.pkg, b.body) {
			return
		}
	}
	if wgPaired(pkg, enclosing, stmt, bodies) {
		return
	}
	pass.Reportf(stmt.Pos(),
		"give the goroutine a stop path: select on a struct{} done/stop channel (or ctx.Done()), or pair it with WaitGroup Add/Done; else add `//lint:stopped <why>` naming the joining mechanism",
		"goroutine has no provable stop path")
}

// scanBody is a function body paired with the package whose type info
// resolves it (spawned callees may live in another package).
type scanBody struct {
	pkg  *Package
	body *ast.BlockStmt
}

// spawnedBodies collects the bodies the stop-path search scans: the
// spawned literal or named function, plus everything reachable from it
// through static calls up to goStmtScanDepth hops. resolved is false
// when the spawned expression is an opaque function value.
func spawnedBodies(g *CallGraph, pkg *Package, stmt *ast.GoStmt) (bodies []scanBody, resolved bool) {
	var frontier []*types.Func
	switch fun := unparen(stmt.Call.Fun).(type) {
	case *ast.FuncLit:
		bodies = append(bodies, scanBody{pkg, fun.Body})
		frontier = staticCalleesIn(pkg, fun.Body)
	default:
		fn := staticCallee(pkg, fun)
		if fn == nil {
			return nil, false
		}
		frontier = []*types.Func{fn}
	}

	seen := make(map[*types.Func]bool)
	for depth := 0; depth < goStmtScanDepth && len(frontier) > 0; depth++ {
		var next []*types.Func
		for _, fn := range frontier {
			if seen[fn] {
				continue
			}
			seen[fn] = true
			n := g.Node(fn)
			if n == nil || n.Decl == nil || n.Decl.Body == nil {
				continue
			}
			bodies = append(bodies, scanBody{n.Pkg, n.Decl.Body})
			next = append(next, n.Callees()...)
		}
		frontier = next
	}
	return bodies, true
}

// staticCallee resolves an expression in call position to a *types.Func,
// or nil for dynamic function values.
func staticCallee(pkg *Package, fun ast.Expr) *types.Func {
	switch fe := unparen(fun).(type) {
	case *ast.Ident:
		if fn, ok := pkg.Info.Uses[fe].(*types.Func); ok {
			return fn.Origin()
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fe]; ok && sel.Kind() == types.MethodVal {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn.Origin()
			}
			return nil
		}
		if fn, ok := pkg.Info.Uses[fe.Sel].(*types.Func); ok {
			return fn.Origin()
		}
	}
	return nil
}

// staticCalleesIn collects every statically-resolvable callee in body.
func staticCalleesIn(pkg *Package, body *ast.BlockStmt) []*types.Func {
	var out []*types.Func
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if fn := staticCallee(pkg, call.Fun); fn != nil {
				out = append(out, fn)
			}
		}
		return true
	})
	return out
}

// hasSignalReceive reports whether body receives from (or ranges over) a
// channel whose element type is struct{}. ctx.Done(), close-signalled
// stop channels, and per-job Done() channels all have this shape; a
// time.Ticker's C (chan time.Time) deliberately does not.
func hasSignalReceive(bodyPkg *Package, body *ast.BlockStmt) bool {
	if bodyPkg == nil {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case *ast.UnaryExpr:
			if x.Op == token.ARROW && isSignalChan(bodyPkg, x.X) {
				found = true
				return false
			}
		case *ast.RangeStmt:
			if isSignalChan(bodyPkg, x.X) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// isSignalChan reports whether e has type chan struct{} (any direction).
func isSignalChan(pkg *Package, e ast.Expr) bool {
	tv, ok := pkg.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	ch, ok := tv.Type.Underlying().(*types.Chan)
	if !ok {
		return false
	}
	st, ok := ch.Elem().Underlying().(*types.Struct)
	return ok && st.NumFields() == 0
}

// wgPaired proves the Add-before-go / Done-inside-work WaitGroup
// pairing. When both the Add and the Done receiver resolve to objects
// (field or variable), they must match; when resolution fails on either
// side, the pairing is accepted leniently.
func wgPaired(pkg *Package, enclosing *ast.BlockStmt, stmt *ast.GoStmt, bodies []scanBody) bool {
	if enclosing == nil {
		return false
	}
	adds := wgCallTargets(pkg, enclosing, "Add", stmt.Pos())
	if len(adds) == 0 {
		return false
	}
	for _, b := range bodies {
		dones := wgCallTargets(b.pkg, b.body, "Done", 0)
		for _, d := range dones {
			for _, a := range adds {
				if a == nil || d == nil || a == d {
					return true
				}
			}
		}
	}
	return false
}

// wgCallTargets finds calls to sync.WaitGroup method `name` under root
// (before limit, when limit is set) and returns the receiver objects
// (nil entries for receivers that do not resolve to a single object).
func wgCallTargets(pkg *Package, root ast.Node, name string, limit token.Pos) []types.Object {
	var out []types.Object
	ast.Inspect(root, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if limit != 0 && call.Pos() >= limit {
			return true
		}
		sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != name {
			return true
		}
		fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
			return true
		}
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil || !isWaitGroup(recv.Type()) {
			return true
		}
		out = append(out, receiverObject(pkg, sel.X))
		return true
	})
	return out
}

func isWaitGroup(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "sync" && named.Obj().Name() == "WaitGroup"
}

// receiverObject resolves the WaitGroup receiver expression to a stable
// object: the field for e.wg, the variable for a local wg. Returns nil
// when the expression is anything more exotic.
func receiverObject(pkg *Package, e ast.Expr) types.Object {
	switch x := unparen(e).(type) {
	case *ast.Ident:
		return pkg.Info.Uses[x]
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[x]; ok {
			return sel.Obj()
		}
		return pkg.Info.Uses[x.Sel]
	}
	return nil
}
