package lint

import (
	"errors"
	"fmt"
	"go/ast"
	"go/types"
	"slices"
	"strconv"
	"strings"
)

// FencePackages is the determinism fence and the suite's one scope list
// for determinism: the sixteen packages whose results feed covers,
// placements, wire-cost tables and the mapped netlist, the root package
// that runs the flow, and the packages those import. The list is closed
// under module imports: a fenced package may import only fenced
// packages and fenceExempt (checkFence enforces this in Run).
var FencePackages = []string{
	ModulePath,
	ModulePath + "/internal/bdd",
	ModulePath + "/internal/bench",
	ModulePath + "/internal/core",
	ModulePath + "/internal/cover",
	ModulePath + "/internal/cut",
	ModulePath + "/internal/decomp",
	ModulePath + "/internal/equiv",
	ModulePath + "/internal/fanout",
	ModulePath + "/internal/geom",
	ModulePath + "/internal/layout",
	ModulePath + "/internal/library",
	ModulePath + "/internal/logic",
	ModulePath + "/internal/match",
	ModulePath + "/internal/mis",
	ModulePath + "/internal/netlist",
	ModulePath + "/internal/opt",
	ModulePath + "/internal/place",
	ModulePath + "/internal/timing",
	ModulePath + "/internal/wire",
}

// fenceExempt is the one module package fenced packages may import
// without being fenced: observability reads the wall clock by design
// and feeds no mapping decision.
const fenceExempt = ModulePath + "/internal/obs"

func fenced(importPath string) bool { return slices.Contains(FencePackages, importPath) }

// checkFence fails closed when the fence no longer matches the module:
// a listed package is missing, or a fenced package imports a module
// package that is neither fenced nor exempt. Either way the fence would
// silently stop covering code the flow runs.
func checkFence(all []*Package) error {
	byPath := make(map[string]*Package, len(all))
	for _, pkg := range all {
		byPath[pkg.Path] = pkg
	}
	var errs []error
	for _, path := range FencePackages {
		pkg := byPath[path]
		if pkg == nil {
			errs = append(errs, fmt.Errorf("purity: fence package %s is missing from the module", path))
			continue
		}
		for _, f := range pkg.Files {
			for _, spec := range f.Imports {
				imp, err := strconv.Unquote(spec.Path.Value)
				if err != nil || !inModule(imp) || fenced(imp) || imp == fenceExempt {
					continue
				}
				errs = append(errs, fmt.Errorf("purity: fenced package %s imports %s, which is neither fenced nor %s; add it to FencePackages or drop the import", path, imp, fenceExempt))
			}
		}
	}
	return errors.Join(errs...)
}

// PurityAnalyzer is the determinism fence over the mapping pipeline,
// applied to every package in FencePackages. The rules, applied to the
// whole package:
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
var PurityAnalyzer = &Analyzer{
	Name:          "purity",
	Doc:           "determinism fence: no clock/rand/env/map-order/float-eq in the fence packages",
	Justification: "impure",
	Run:           runPurity,
}

func runPurity(pass *Pass) error {
	sorted, exact := enginePass(pass, "sorted"), enginePass(pass, "exact")
	for _, f := range pass.Files {
		checkImpureRefs(pass, f)
		checkFloatEq(exact, f)
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					mapOrderVisitFunc(sorted, fn.Body)
				}
				return false
			case *ast.FuncLit:
				mapOrderVisitFunc(sorted, fn.Body)
				return false
			}
			return true
		})
	}
	return nil
}

// enginePass is the Pass through which the fence runs one of its proof
// engines (map order, float equality). The engine's own word (sorted,
// exact) suppresses its findings, and so does the fence's uniform
// `//lint:impure` escape hatch.
func enginePass(pass *Pass, word string) *Pass {
	engine := *pass
	engine.Analyzer = &Analyzer{Name: pass.Analyzer.Name, Justification: word}
	engine.Report = func(d Diagnostic) { pass.Reportf(d.Pos, d.Suggestion, "%s", d.Message) }
	return &engine
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
// denylisted function under root.
func checkImpureRefs(pass *Pass, root ast.Node) {
	var visit func(node ast.Node) bool
	visit = func(node ast.Node) bool {
		switch e := node.(type) {
		case *ast.SelectorExpr:
			reportImpure(pass, e, e.Sel)
			// Descend only into X: the Sel ident would double-report.
			ast.Inspect(e.X, visit)
			return false
		case *ast.Ident:
			reportImpure(pass, e, e)
		}
		return true
	}
	ast.Inspect(root, visit)
}

// reportImpure flags at's use of id when id names a denylisted function.
func reportImpure(pass *Pass, at ast.Node, id *ast.Ident) {
	fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
	if !ok {
		return
	}
	if what, bad := impureDenied(fn); bad {
		pass.Reportf(at.Pos(),
			"thread the value in as data (config field, parameter, injected seed) or add `//lint:impure <why>` documenting why this cannot affect mapping results",
			"%s in fenced package %s", what, pass.Pkg.Path())
	}
}

// stdFuncIs reports whether fn is the package-level function pkgPath.name
// (receiver-less), e.g. stdFuncIs(fn, "time", "Now").
func stdFuncIs(fn *types.Func, pkgPath, name string) bool {
	return fn.Name() == name && stdPkgFunc(fn, pkgPath) && fn.Pkg().Path() == pkgPath
}

// stdPkgFunc reports whether fn is any package-level function of the
// package pkgPath or one below it ("math/rand" also matches
// "math/rand/v2").
func stdPkgFunc(fn *types.Func, pkgPath string) bool {
	if fn.Pkg() == nil {
		return false
	}
	p := fn.Pkg().Path()
	if p != pkgPath && !strings.HasPrefix(p, pkgPath+"/") {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}
