// Package lint is lily's domain-specific static-analysis suite: a small
// stdlib-only reimplementation of the golang.org/x/tools/go/analysis
// vocabulary (Analyzer, Pass, Diagnostic) plus five analyzers that turn
// the repo's house rules into mechanically checked invariants.
//
// Two are per-package checks, applied to every package of the module:
//
//   - ctxloop: unbounded loops in context-accepting functions must stay
//     cancellable (a ctx.Err()/ctx.Done() checkpoint or a ctx-forwarding
//     call), like the PR-1 checkpoints in place, cg, and the cone loop.
//   - lockheld: methods documented "requires x.mu" must only be called
//     with the mutex held, and sync.Mutex values must not be copied.
//
// Three are cross-package ProgramAnalyzers over the whole-program CHA
// call graph (callgraph.go):
//
//   - purity: the determinism fence and the suite's one set of
//     determinism rules — nothing in the deterministic mapping packages,
//     or reachable from them or the flow entry point, may read the wall
//     clock, the process environment, or global rand, iterate a map in
//     an order-dependent way, or compare floats exactly.
//   - goleak: every `go` statement in engine/server needs a
//     provable stop path (signal-channel receive or WaitGroup pairing).
//   - httpcontract: HTTP handlers write exactly one status per path,
//     429s carry Retry-After, and no body follows an error status.
//
// Run is the one driver: cmd/lilylint calls it with the command-line
// package patterns, and the package's own TestAllAnalyzers self-run
// calls it over ./... so `go test ./...` keeps the tree lint-clean.
// Program analyzers always see the whole module; findings are reported
// for the requested packages.
//
// Diagnostics can be suppressed with a justification comment on the
// flagged line (or the line above): `//lint:bounded <why>` (ctxloop),
// `//lint:locked <why>` (lockheld), `//lint:sorted <why>`,
// `//lint:exact <why>` or `//lint:impure <why>` (purity),
// `//lint:stopped <why>` (goleak), `//lint:response <why>`
// (httpcontract). The justification word is the invariant, not the
// analyzer's name: the comment asserts the invariant holds for reasons
// the analyzer cannot see. The <why> text is mandatory — a bare marker
// suppresses nothing.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Analyzer is one static check, mirroring x/tools' analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics.
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

	justifications justifications
}

// Reportf reports a diagnostic at pos with a formatted message, unless a
// justification comment carrying the analyzer's word suppresses it.
func (p *Pass) Reportf(pos token.Pos, suggestion, format string, args ...any) {
	if p.justifications.has(p.Fset, pos, p.Analyzer.Justification) {
		return
	}
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...), Suggestion: suggestion})
}

// justifications maps file -> line -> the //lint: words on that line.
type justifications map[string]map[int][]string

// add indexes every `//lint:<word> <why>` marker in files. Markers
// without a justification text are ignored: the escape hatch must carry
// an argument.
func (j justifications) add(fset *token.FileSet, files []*ast.File) {
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				word, ok := justificationWord(c.Text)
				if !ok {
					continue
				}
				posn := fset.Position(c.Pos())
				byLine := j[posn.Filename]
				if byLine == nil {
					byLine = make(map[int][]string)
					j[posn.Filename] = byLine
				}
				byLine[posn.Line] = append(byLine[posn.Line], word)
			}
		}
	}
}

// has reports whether pos carries word on its own line or the line
// immediately above.
func (j justifications) has(fset *token.FileSet, pos token.Pos, word string) bool {
	if word == "" || !pos.IsValid() {
		return false
	}
	position := fset.Position(pos)
	lines := j[position.Filename]
	for _, l := range []int{position.Line, position.Line - 1} {
		for _, w := range lines[l] {
			if w == word {
				return true
			}
		}
	}
	return false
}

// justificationWord extracts the word of a `//lint:<word> <why>`
// comment. The trailing justification text is mandatory: a bare
// `//lint:sorted` suppresses nothing.
func justificationWord(comment string) (string, bool) {
	rest, ok := strings.CutPrefix(strings.TrimPrefix(comment, "//"), "lint:")
	if !ok {
		return "", false
	}
	i := strings.IndexAny(rest, " \t")
	if i < 0 {
		return "", false // no justification text
	}
	word, why := rest[:i], strings.TrimSpace(rest[i:])
	if word == "" || why == "" {
		return "", false
	}
	return word, true
}

// Analyzers is the per-package suite, in reporting order.
var Analyzers = []*Analyzer{
	CtxLoopAnalyzer,
	LockHeldAnalyzer,
}

// ModulePath is the import path of the module the suite guards.
const ModulePath = "lily"

// AnalyzersFor returns the per-package analyzers that apply to
// importPath: all of them inside the module, none outside it.
func AnalyzersFor(importPath string) []*Analyzer {
	if importPath != ModulePath && !strings.HasPrefix(importPath, ModulePath+"/") {
		return nil
	}
	return Analyzers
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
	just := make(justifications)
	just.add(pkg.Fset, pkg.Files)
	var findings []Finding
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:       a,
			Fset:           pkg.Fset,
			Files:          pkg.Files,
			Pkg:            pkg.Types,
			TypesInfo:      pkg.Info,
			justifications: just,
		}
		pass.Report = func(d Diagnostic) {
			findings = append(findings, Finding{
				Analyzer: a.Name,
				Posn:     pkg.Fset.Position(d.Pos),
				Message:  d.Message,
				Suggest:  d.Suggestion,
			})
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", pkg.Path, a.Name, err)
		}
	}
	sortFindings(findings)
	return findings, nil
}

// sortFindings orders findings by position, then analyzer name.
func sortFindings(findings []Finding) {
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
}

// Run is the suite's driver. It loads the whole module containing dir
// with the offline Loader, runs the per-package analyzers over the
// packages matched by patterns and the program analyzers over the whole
// module, and prints the findings that fall in the matched packages to
// w, sorted by position. It returns the exit code: 0 clean, 1 findings,
// 2 operational error (err is then non-nil). A type error anywhere in
// the module is an operational error: analysis over partial type
// information could miss findings.
func Run(dir string, patterns []string, w io.Writer) (int, error) {
	root, err := findModuleRoot(dir)
	if err != nil {
		return 2, err
	}
	loader, err := NewLoader(root)
	if err != nil {
		return 2, err
	}
	requested, err := loader.Load(patterns...)
	if err != nil {
		return 2, err
	}
	all, err := loader.Load("./...")
	if err != nil {
		return 2, err
	}
	for _, pkg := range all {
		if len(pkg.TypeErrors) > 0 {
			return 2, fmt.Errorf("type-checking %s: %w", pkg.Path, pkg.TypeErrors[0])
		}
	}

	var findings []Finding
	inRequest := make(map[*Package]bool, len(requested))
	for _, pkg := range requested {
		inRequest[pkg] = true
		fs, err := RunAnalyzers(pkg, AnalyzersFor(pkg.Path))
		if err != nil {
			return 2, err
		}
		findings = append(findings, fs...)
	}
	prog := BuildProgram(all)
	progFindings, err := RunProgramAnalyzers(prog, ProgramAnalyzers)
	if err != nil {
		return 2, err
	}
	for _, f := range progFindings {
		if inRequest[prog.PackageOfFile(f.Posn.Filename)] {
			findings = append(findings, f)
		}
	}

	sortFindings(findings)
	for _, f := range findings {
		fmt.Fprintln(w, f.String())
	}
	if len(findings) > 0 {
		return 1, nil
	}
	return 0, nil
}

// findModuleRoot walks up from dir to the nearest directory containing
// go.mod.
func findModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := abs; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("lint: no go.mod found above %s", abs)
		}
		d = parent
	}
}
