// Package lint is lily's domain-specific static-analysis suite: a small
// stdlib-only reimplementation of the golang.org/x/tools/go/analysis
// vocabulary (Analyzer, Pass, Diagnostic) plus seven analyzers that turn
// the repo's determinism house rules into mechanically checked invariants.
//
// Four are per-package checks:
//
//   - maporder: no order-dependent iteration over Go maps in the
//     deterministic mapping packages (map iteration order is randomized;
//     a cost loop keyed on it makes Tables 1–2 unreproducible).
//   - ctxloop: unbounded loops in context-accepting functions must stay
//     cancellable (a ctx.Err()/ctx.Done() checkpoint or a ctx-forwarding
//     call), like the PR-1 checkpoints in place, cg, and the cone loop.
//   - floateq: no raw ==/!= between floating-point cost or arrival-time
//     expressions in the cost packages; use epsilon compares and the
//     deterministic tie-break helpers instead.
//   - lockheld: methods documented "requires x.mu" must only be called
//     with the mutex held, and sync.Mutex values must not be copied.
//
// Three are cross-package ProgramAnalyzers over the whole-program CHA
// call graph (callgraph.go):
//
//   - purity: the determinism fence — nothing reachable from the
//     mapping pipeline's root set may read the wall clock, the process
//     environment, or global rand, iterate a map unordered, or compare
//     floats exactly.
//   - goleak: every `go` statement in engine/server needs a
//     provable stop path (signal-channel receive or WaitGroup pairing).
//   - httpcontract: HTTP handlers write exactly one status per path,
//     429s carry Retry-After, and no body follows an error status.
//
// The suite runs three ways: the lint.Analyzers and lint.ProgramAnalyzers
// slices feed the cmd/lilylint multichecker (standalone package
// patterns), the same binary speaks the `go vet -vettool` unitchecker
// protocol (program analyzers run at their anchor units), and the
// package's own TestAllAnalyzers self-run keeps the tree lint-clean as
// part of `go test ./...`.
//
// Diagnostics can be suppressed with a justification comment on the
// flagged line (or the line above): `//lint:sorted <why>` (maporder),
// `//lint:bounded <why>` (ctxloop), `//lint:exact <why>` (floateq),
// `//lint:locked <why>` (lockheld), `//lint:impure <why>` (purity),
// `//lint:stopped <why>` (goleak), `//lint:response <why>`
// (httpcontract). The justification word is the analyzer's invariant,
// not its name: the comment asserts the invariant holds for reasons the
// analyzer cannot see. For the three program analyzers the <why> text
// is mandatory — a bare marker suppresses nothing.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one static check, mirroring x/tools' analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -checks flags.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Justification is the //lint: word that suppresses this analyzer's
	// diagnostics on a line (empty means no suppression).
	Justification string
	// Run executes the analyzer over one package.
	Run func(*Pass) error
}

// Diagnostic is one finding: a position, the problem, and a one-line fix
// suggestion.
type Diagnostic struct {
	Pos        token.Pos
	Message    string
	Suggestion string
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report receives diagnostics. The driver installs it.
	Report func(Diagnostic)

	// justifications maps file -> line -> lint words present on that line.
	justifications map[string]map[int][]string
}

// Reportf reports a diagnostic at pos with a formatted message, unless a
// justification comment suppresses it.
func (p *Pass) Reportf(pos token.Pos, suggestion, format string, args ...any) {
	if p.Justified(pos) {
		return
	}
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...), Suggestion: suggestion})
}

// Justified reports whether pos carries this analyzer's justification
// word on its own line or the line immediately above.
func (p *Pass) Justified(pos token.Pos) bool {
	word := p.Analyzer.Justification
	if word == "" || !pos.IsValid() {
		return false
	}
	position := p.Fset.Position(pos)
	lines, ok := p.justifications[position.Filename]
	if !ok {
		return false
	}
	for _, l := range []int{position.Line, position.Line - 1} {
		for _, w := range lines[l] {
			if w == word {
				return true
			}
		}
	}
	return false
}

// indexJustifications scans comments for //lint:<word> markers.
func (p *Pass) indexJustifications() {
	p.justifications = make(map[string]map[int][]string)
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				if !strings.HasPrefix(text, "lint:") {
					continue
				}
				word := strings.TrimPrefix(text, "lint:")
				if i := strings.IndexAny(word, " \t"); i >= 0 {
					word = word[:i]
				}
				if word == "" {
					continue
				}
				posn := p.Fset.Position(c.Pos())
				byLine := p.justifications[posn.Filename]
				if byLine == nil {
					byLine = make(map[int][]string)
					p.justifications[posn.Filename] = byLine
				}
				byLine[posn.Line] = append(byLine[posn.Line], word)
			}
		}
	}
}

// Analyzers is the full suite, in reporting order. It feeds the
// cmd/lilylint multichecker, the vet-mode unit checker, and the
// TestAllAnalyzers self-run.
var Analyzers = []*Analyzer{
	MapOrderAnalyzer,
	CtxLoopAnalyzer,
	FloatEqAnalyzer,
	LockHeldAnalyzer,
}

// ModulePath is the import path of the module the suite guards.
const ModulePath = "lily"

// DeterministicPackages lists the packages whose iteration order feeds
// mapping results (covers, placements, wire-cost tables): maporder
// applies here. Paths are relative to the module root.
var DeterministicPackages = []string{
	"internal/logic", "internal/decomp", "internal/match", "internal/cut", "internal/cover",
	"internal/place", "internal/wire", "internal/timing", "internal/fanout",
	"internal/layout", "internal/opt", "internal/mis", "internal/core",
	"internal/netlist", "internal/library", "internal/equiv",
}

// CostPackages lists the packages computing float costs and arrival
// times: floateq applies here.
var CostPackages = []string{
	"internal/cover", "internal/wire", "internal/timing", "internal/place",
}

func inList(importPath string, rel []string) bool {
	for _, r := range rel {
		if importPath == ModulePath+"/"+r {
			return true
		}
	}
	return false
}

// AnalyzersFor returns the analyzers that apply to importPath:
// ctxloop and lockheld run module-wide; maporder only in the
// deterministic packages; floateq only in the cost packages. Packages
// outside the module get nothing.
func AnalyzersFor(importPath string) []*Analyzer {
	if importPath != ModulePath && !strings.HasPrefix(importPath, ModulePath+"/") {
		return nil
	}
	out := []*Analyzer{CtxLoopAnalyzer, LockHeldAnalyzer}
	if inList(importPath, DeterministicPackages) {
		out = append(out, MapOrderAnalyzer)
	}
	if inList(importPath, CostPackages) {
		out = append(out, FloatEqAnalyzer)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Finding pairs a diagnostic with its analyzer and resolved position,
// ready for printing.
type Finding struct {
	Analyzer string
	Posn     token.Position
	Message  string
	Suggest  string
}

func (f Finding) String() string {
	s := fmt.Sprintf("%s: %s [%s]", f.Posn, f.Message, f.Analyzer)
	if f.Suggest != "" {
		s += "\n\tfix: " + f.Suggest
	}
	return s
}

// RunAnalyzers executes each analyzer over the package and returns the
// findings sorted by position.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Finding, error) {
	var findings []Finding
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
		}
		pass.Report = func(d Diagnostic) {
			findings = append(findings, Finding{
				Analyzer: a.Name,
				Posn:     pkg.Fset.Position(d.Pos),
				Message:  d.Message,
				Suggest:  d.Suggestion,
			})
		}
		pass.indexJustifications()
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", pkg.Path, a.Name, err)
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		pi, pj := findings[i].Posn, findings[j].Posn
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return findings[i].Analyzer < findings[j].Analyzer
	})
	return findings, nil
}
