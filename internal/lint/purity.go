package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// PurityConfig declares the determinism fence: which functions seed the
// reachability walk, and which packages are exempt from it.
type PurityConfig struct {
	// RootPackages are import paths whose every declared function is a
	// root of the reachable set, and so is scanned whether or not the
	// flow calls it.
	RootPackages []string
	// RootFuncs are additional roots by FullName, e.g. "lily.RunFlowContext".
	// A listed root that does not resolve is an error: the fence must not
	// silently shrink when a root is renamed.
	RootFuncs []string
	// ExemptPackages are never entered nor scanned (observability reads
	// the wall clock by design and feeds no mapping decision).
	ExemptPackages []string
}

// defaultPurityConfig is the shipped fence and the suite's one scope
// list for determinism: the sixteen packages whose results feed covers,
// placements, wire-cost tables and the mapped netlist are roots
// wholesale, and RunFlowContext pulls in the rest of the flow.
var defaultPurityConfig = PurityConfig{
	RootPackages: []string{
		ModulePath + "/internal/logic",
		ModulePath + "/internal/decomp",
		ModulePath + "/internal/match",
		ModulePath + "/internal/cut",
		ModulePath + "/internal/cover",
		ModulePath + "/internal/place",
		ModulePath + "/internal/wire",
		ModulePath + "/internal/timing",
		ModulePath + "/internal/fanout",
		ModulePath + "/internal/layout",
		ModulePath + "/internal/opt",
		ModulePath + "/internal/mis",
		ModulePath + "/internal/core",
		ModulePath + "/internal/netlist",
		ModulePath + "/internal/library",
		ModulePath + "/internal/equiv",
	},
	RootFuncs: []string{
		ModulePath + ".RunFlowContext",
	},
	ExemptPackages: []string{
		ModulePath + "/internal/obs",
	},
}

// DefaultPurityConfig returns the shipped fence configuration, so tests
// can rebuild the analyzer's view (roots, exemptions) independently.
func DefaultPurityConfig() PurityConfig { return defaultPurityConfig }

// PurityAnalyzer is the determinism fence over the mapping pipeline.
// Every function in the deterministic packages, and every function
// reachable from them or from RunFlowContext, must be deterministic: no
// wall clock, no process environment, no global rand, no unordered map
// iteration, no exact float comparison. See PurityAnalyzerFor for the
// rules.
var PurityAnalyzer = PurityAnalyzerFor(defaultPurityConfig)

// PurityAnalyzerFor builds a purity analyzer for the given fence. The
// rules, applied to every reachable function:
//
//   - calling or referencing time.Now, time.Since, time.Until,
//     os.Getenv, os.LookupEnv, os.Environ, or any package-level function
//     of math/rand or math/rand/v2 is flagged. Methods on an explicit
//     *rand.Rand are allowed: constructing the generator via
//     rand.New(rand.NewSource(seed)) is itself flagged, so every
//     generator's seed provenance is documented at exactly one
//     `//lint:impure` site;
//   - ranging over a map is flagged unless the body is provably
//     order-insensitive (mapOrderVisitFunc) or carries
//     `//lint:sorted <why>`;
//   - exact float ==/!= is flagged (checkFloatEq) unless it carries
//     `//lint:exact <why>`.
//
// `//lint:impure <why>` on the offending line (or the line above)
// suppresses any purity finding.
func PurityAnalyzerFor(cfg PurityConfig) *ProgramAnalyzer {
	a := &ProgramAnalyzer{
		Name:          "purity",
		Doc:           "determinism fence: no clock/rand/env/map-order/float-eq in or reachable from the mapping packages",
		Justification: "impure",
	}
	a.Run = func(pass *ProgramPass) error { return runPurity(pass, cfg) }
	return a
}

func runPurity(pass *ProgramPass, cfg PurityConfig) error {
	g := pass.Prog.Graph

	roots, err := purityRoots(g, cfg)
	if err != nil {
		return err
	}

	exempt := make(map[string]bool, len(cfg.ExemptPackages))
	for _, p := range cfg.ExemptPackages {
		exempt[p] = true
	}
	skip := func(n *CGNode) bool {
		return n.Pkg != nil && exempt[n.Pkg.Path]
	}

	reach := g.Reachable(roots, skip)

	var nodes []*CGNode
	for _, n := range reach {
		if n.Decl != nil && n.Decl.Body != nil {
			nodes = append(nodes, n)
		}
	}
	// Scan in deterministic order.
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Fn.FullName() < nodes[j].Fn.FullName() })

	for _, n := range nodes {
		checkImpureRefs(pass, n)
		mapOrderVisitFunc(fencePass(pass, n.Pkg, "sorted"), n.Decl.Body)
		checkFloatEq(fencePass(pass, n.Pkg, "exact"), n.Decl.Body)
	}
	return nil
}

// fencePass is the per-package Pass through which the fence runs one of
// its proof engines (map order, float equality) against pkg's type
// info. The engine's own word (sorted, exact) suppresses its findings,
// and so does the fence's uniform `//lint:impure` escape hatch.
func fencePass(pass *ProgramPass, pkg *Package, word string) *Pass {
	return &Pass{
		Analyzer:       &Analyzer{Name: pass.Analyzer.Name, Justification: word},
		Fset:           pkg.Fset,
		Files:          pkg.Files,
		Pkg:            pkg.Types,
		TypesInfo:      pkg.Info,
		Report:         func(d Diagnostic) { pass.Reportf(d.Pos, d.Suggestion, "%s", d.Message) },
		justifications: pass.justifications,
	}
}

// purityRoots resolves the configured root set, failing loudly when a
// named root or root package is missing from the program.
func purityRoots(g *CallGraph, cfg PurityConfig) ([]*types.Func, error) {
	var roots []*types.Func
	for _, p := range cfg.RootPackages {
		fns := g.FuncsInPackage(p)
		if len(fns) == 0 {
			return nil, fmt.Errorf("purity: root package %q has no functions in the loaded program", p)
		}
		roots = append(roots, fns...)
	}
	for _, name := range cfg.RootFuncs {
		fn := g.FuncByName(name)
		if fn == nil {
			return nil, fmt.Errorf("purity: root function %q not found in the loaded program", name)
		}
		roots = append(roots, fn)
	}
	if len(roots) == 0 {
		return nil, fmt.Errorf("purity: empty root set")
	}
	return roots, nil
}

// impureDenied reports whether fn is one of the denylisted sources of
// nondeterminism, and names the offense.
func impureDenied(fn *types.Func) (string, bool) {
	switch {
	case stdFuncIs(fn, "time", "Now"),
		stdFuncIs(fn, "time", "Since"),
		stdFuncIs(fn, "time", "Until"):
		return "wall clock (time." + fn.Name() + ")", true
	case stdFuncIs(fn, "os", "Getenv"),
		stdFuncIs(fn, "os", "LookupEnv"),
		stdFuncIs(fn, "os", "Environ"):
		return "process environment (os." + fn.Name() + ")", true
	case stdPkgFunc(fn, "math/rand"):
		// Package-level functions only: the global generator's seed is
		// process state. Methods on an explicit *rand.Rand pass, because
		// the rand.New construction site is where the seed is justified.
		return "global rand (" + fn.Pkg().Path() + "." + fn.Name() + ")", true
	}
	return "", false
}

// checkImpureRefs flags every use (call or value reference) of a
// denylisted function inside n's declaration.
func checkImpureRefs(pass *ProgramPass, n *CGNode) {
	info := n.Pkg.Info
	var visit func(node ast.Node) bool
	visit = func(node ast.Node) bool {
		switch e := node.(type) {
		case *ast.SelectorExpr:
			if fn, ok := info.Uses[e.Sel].(*types.Func); ok {
				if what, bad := impureDenied(fn); bad {
					reportImpure(pass, e.Pos(), n, what)
				}
			}
			// Descend only into X: the Sel ident would double-report.
			ast.Inspect(e.X, visit)
			return false
		case *ast.Ident:
			if fn, ok := info.Uses[e].(*types.Func); ok {
				if what, bad := impureDenied(fn); bad {
					reportImpure(pass, e.Pos(), n, what)
				}
			}
		}
		return true
	}
	ast.Inspect(n.Decl.Body, visit)
}

func reportImpure(pass *ProgramPass, pos token.Pos, n *CGNode, what string) {
	pass.Reportf(pos,
		"thread the value in as data (config field, parameter, injected seed) or add `//lint:impure <why>` documenting why this cannot affect mapping results",
		"%s reachable from the deterministic root set via %s", what, n.Fn.FullName())
}
