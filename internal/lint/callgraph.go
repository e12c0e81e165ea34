package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// This file builds the whole-program call graph the program-level
// analyzer (purity) runs over. The construction is
// CHA-style (class hierarchy analysis) over go/types:
//
//   - static calls (package functions, methods with a concrete
//     receiver) get one edge to their *types.Func;
//   - calls through an interface method get one edge per concrete
//     program type whose method set implements the interface (the
//     class-hierarchy over-approximation);
//   - calls through function values (variables, fields, parameters)
//     get one edge to every program function whose identity is taken
//     as a value somewhere and whose type matches the called value's
//     type (conservative: over-approximates, never misses).
//
// Functions outside the loaded program (stdlib reached through the
// importer) become leaf nodes: they appear as callees so analyzers can
// match them by qualified name, but they have no body to traverse.
// Function literals are attributed to their enclosing declaration: a
// call made inside a closure of F is an edge out of F.

// Program is a set of loaded packages plus the call graph over them —
// the shared substrate for cross-package analyzers. All packages must
// share one token.FileSet (the Loader guarantees this).
type Program struct {
	byFile map[string]*Package

	Packages []*Package
	Graph    *CallGraph
}

// PackageOfFile returns the loaded package containing filename, or nil.
func (p *Program) PackageOfFile(filename string) *Package {
	return p.byFile[filename]
}

// CGNode is one function in the call graph.
type CGNode struct {
	Fn   *types.Func
	Decl *ast.FuncDecl // nil for functions without loaded source
	Pkg  *Package      // nil for functions outside the program

	out map[*types.Func]bool
}

// Callees returns the node's out-edges, sorted by full name for
// deterministic traversal order.
func (n *CGNode) Callees() []*types.Func {
	out := make([]*types.Func, 0, len(n.out))
	for fn := range n.out {
		out = append(out, fn)
	}
	//lint:sorted collect-then-sort: traversal order pinned by FullName
	sort.Slice(out, func(i, j int) bool { return out[i].FullName() < out[j].FullName() })
	return out
}

// CallGraph is the whole-program CHA call graph.
type CallGraph struct {
	nodes map[*types.Func]*CGNode

	// addrTaken maps a function-value type string to the program
	// functions taken as values at that type (targets for calls through
	// function values).
	addrTaken map[string][]*types.Func

	// namedTypes is every named (non-interface) type declared in the
	// program, for interface-call resolution.
	namedTypes []types.Type
}

// Node returns the graph node for fn (looking through instantiations),
// or nil if fn has no loaded source.
func (g *CallGraph) Node(fn *types.Func) *CGNode {
	if fn == nil {
		return nil
	}
	return g.nodes[fn.Origin()]
}

// Nodes returns every program-defined node, sorted by full name.
func (g *CallGraph) Nodes() []*CGNode {
	out := make([]*CGNode, 0, len(g.nodes))
	for _, n := range g.nodes {
		out = append(out, n)
	}
	//lint:sorted collect-then-sort: iteration order pinned by FullName
	sort.Slice(out, func(i, j int) bool { return out[i].Fn.FullName() < out[j].Fn.FullName() })
	return out
}

// Reachable computes the forward closure from roots over the graph,
// traversing only program-defined functions (leaves terminate the walk)
// and skipping functions for which skip returns true. The result maps
// every reached program function (roots included) to its node.
func (g *CallGraph) Reachable(roots []*types.Func, skip func(*CGNode) bool) map[*types.Func]*CGNode {
	seen := make(map[*types.Func]*CGNode)
	var stack []*CGNode
	push := func(fn *types.Func) {
		n := g.Node(fn)
		if n == nil || seen[n.Fn] != nil || (skip != nil && skip(n)) {
			return
		}
		seen[n.Fn] = n
		stack = append(stack, n)
	}
	for _, r := range roots {
		push(r)
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, callee := range n.Callees() {
			push(callee)
		}
	}
	return seen
}

// BuildProgram assembles the call graph over the loaded packages.
func BuildProgram(pkgs []*Package) *Program {
	prog := &Program{
		byFile:   make(map[string]*Package),
		Packages: pkgs,
	}
	g := &CallGraph{
		nodes:     make(map[*types.Func]*CGNode),
		addrTaken: make(map[string][]*types.Func),
	}
	prog.Graph = g

	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			prog.byFile[pkg.Fset.Position(f.Pos()).Filename] = pkg
		}
	}

	// Pass 1: declare nodes and collect named types.
	for _, pkg := range pkgs {
		collectNamedTypes(g, pkg)
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				g.nodes[obj.Origin()] = &CGNode{Fn: obj, Decl: fd, Pkg: pkg}
			}
		}
	}

	// Pass 2: address-taken function values (dynamic-call targets).
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			collectAddrTaken(g, pkg, f)
		}
	}

	// Pass 3: edges.
	for _, node := range g.nodes {
		if node.Decl == nil || node.Decl.Body == nil {
			continue
		}
		node.out = make(map[*types.Func]bool)
		addEdges(g, node)
	}
	return prog
}

// collectNamedTypes records the package's named non-interface types for
// interface-call (CHA) resolution.
func collectNamedTypes(g *CallGraph, pkg *Package) {
	if pkg.Types == nil {
		return
	}
	scope := pkg.Types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		t := tn.Type()
		if types.IsInterface(t) {
			continue
		}
		g.namedTypes = append(g.namedTypes, t)
	}
}

// collectAddrTaken finds every use of a function's identity as a value
// (assigned, passed, stored, returned — anything but being called) and
// indexes it under the function value's type, which is what a dynamic
// call site can later match against.
func collectAddrTaken(g *CallGraph, pkg *Package, f *ast.File) {
	// First mark the expressions in call position, so a plain call does
	// not count as taking the callee's address.
	inCallPos := make(map[ast.Expr]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			inCallPos[unparen(call.Fun)] = true
		}
		return true
	})
	take := func(e ast.Expr, fn *types.Func) {
		if inCallPos[e] {
			return
		}
		tv, ok := pkg.Info.Types[e]
		if !ok || tv.Type == nil {
			return
		}
		key := types.TypeString(tv.Type, nil)
		g.addrTaken[key] = append(g.addrTaken[key], fn.Origin())
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.SelectorExpr:
			if fn, ok := pkg.Info.Uses[e.Sel].(*types.Func); ok {
				take(e, fn)
			}
		case *ast.Ident:
			// Skip the Sel of a SelectorExpr: Inspect visits the parent
			// selector first and we only descend into its X.
			if fn, ok := pkg.Info.Uses[e].(*types.Func); ok {
				take(e, fn)
			}
		}
		if sel, ok := n.(*ast.SelectorExpr); ok {
			ast.Inspect(sel.X, func(m ast.Node) bool {
				switch e := m.(type) {
				case *ast.SelectorExpr:
					if fn, ok := pkg.Info.Uses[e.Sel].(*types.Func); ok {
						take(e, fn)
					}
				case *ast.Ident:
					if fn, ok := pkg.Info.Uses[e].(*types.Func); ok {
						take(e, fn)
					}
				}
				return true
			})
			return false
		}
		return true
	})
}

// addEdges resolves every call inside node's declaration (closures
// included — they belong to the declaring function) to call-graph edges.
func addEdges(g *CallGraph, node *CGNode) {
	pkg := node.Pkg
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fun := unparen(call.Fun)
		switch fe := fun.(type) {
		case *ast.Ident:
			switch obj := pkg.Info.Uses[fe].(type) {
			case *types.Func:
				node.out[obj.Origin()] = true
				return true
			case *types.Builtin, *types.TypeName, nil:
				return true // builtin or conversion: no edge
			default:
				// Function-valued variable or parameter.
				addDynamicEdges(g, node, pkg, fun)
				return true
			}
		case *ast.SelectorExpr:
			if sel, ok := pkg.Info.Selections[fe]; ok && sel.Kind() == types.MethodVal {
				if types.IsInterface(sel.Recv()) {
					addInterfaceEdges(g, node, sel)
					return true
				}
				if fn, ok := sel.Obj().(*types.Func); ok {
					node.out[fn.Origin()] = true
				}
				return true
			}
			switch obj := pkg.Info.Uses[fe.Sel].(type) {
			case *types.Func:
				node.out[obj.Origin()] = true // qualified pkg.Fn
			case *types.TypeName, nil:
				// conversion or unresolved: no edge
			default:
				addDynamicEdges(g, node, pkg, fun) // func-typed field/var
			}
			return true
		case *ast.FuncLit:
			// Immediately-invoked literal: its body is already part of
			// this node's walk.
			return true
		default:
			// Anything else producing a function value (index into a
			// slice of funcs, call returning a func, generic instance).
			addDynamicEdges(g, node, pkg, fun)
			return true
		}
	})
}

// addDynamicEdges links a call through a function value to every
// program function taken as a value at the same type.
func addDynamicEdges(g *CallGraph, node *CGNode, pkg *Package, fun ast.Expr) {
	tv, ok := pkg.Info.Types[fun]
	if !ok || tv.Type == nil {
		return
	}
	if _, isSig := tv.Type.Underlying().(*types.Signature); !isSig {
		return
	}
	key := types.TypeString(tv.Type, nil)
	for _, fn := range g.addrTaken[key] {
		node.out[fn] = true
	}
}

// addInterfaceEdges links an interface method call to the matching
// method of every program type implementing the interface (CHA).
func addInterfaceEdges(g *CallGraph, node *CGNode, sel *types.Selection) {
	iface, ok := sel.Recv().Underlying().(*types.Interface)
	if !ok {
		return
	}
	name := sel.Obj().Name()
	for _, t := range g.namedTypes {
		impl := types.Type(t)
		if !types.Implements(impl, iface) {
			impl = types.NewPointer(t)
			if !types.Implements(impl, iface) {
				continue
			}
		}
		obj, _, _ := types.LookupFieldOrMethod(impl, true, sel.Obj().Pkg(), name)
		if fn, ok := obj.(*types.Func); ok {
			node.out[fn.Origin()] = true
		}
	}
}

// FuncByName resolves a function by its FullName ("pkg/path.Name" or
// "(pkg/path.Type).Method") among the program's nodes.
func (g *CallGraph) FuncByName(full string) *types.Func {
	for fn := range g.nodes {
		if fn.FullName() == full {
			return fn
		}
	}
	return nil
}

// FuncsInPackage returns every program function declared in the package
// with the given import path, sorted by full name.
func (g *CallGraph) FuncsInPackage(importPath string) []*types.Func {
	var out []*types.Func
	for fn, n := range g.nodes {
		if n.Pkg != nil && n.Pkg.Path == importPath {
			out = append(out, fn)
		}
	}
	//lint:sorted collect-then-sort: result pinned by FullName
	sort.Slice(out, func(i, j int) bool { return out[i].FullName() < out[j].FullName() })
	return out
}

// stdFuncIs reports whether fn is the package-level function pkgPath.name
// (receiver-less), e.g. stdFuncIs(fn, "time", "Now").
func stdFuncIs(fn *types.Func, pkgPath, name string) bool {
	if fn == nil || fn.Pkg() == nil || fn.Name() != name || fn.Pkg().Path() != pkgPath {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// stdPkgFunc reports whether fn is any package-level function of a
// package whose import path matches pkgPath exactly or as a prefix
// ("math/rand" also matches "math/rand/v2" via the caller passing both).
func stdPkgFunc(fn *types.Func, pkgPath string) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	p := fn.Pkg().Path()
	if p != pkgPath && !strings.HasPrefix(p, pkgPath+"/") {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}
