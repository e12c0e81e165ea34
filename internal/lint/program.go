package lint

import (
	"fmt"
	"go/token"
)

// ProgramAnalyzer is a cross-package check: where an Analyzer sees one
// type-checked package, a ProgramAnalyzer sees the whole module and the
// call graph over it. The one shipped instance is purity, the
// determinism fence over the mapping packages and their reachable
// closure.
type ProgramAnalyzer struct {
	// Name identifies the analyzer in diagnostics.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Justification is the //lint: word that suppresses this analyzer's
	// diagnostics on a line.
	Justification string
	// Run executes the analyzer over the program.
	Run func(*ProgramPass) error
}

// ProgramPass carries one program analyzer's view of the whole program.
type ProgramPass struct {
	Analyzer *ProgramAnalyzer
	Prog     *Program

	// Report receives diagnostics. The driver installs it.
	Report func(Diagnostic)

	// justifications indexes every file of every loaded package.
	justifications justifications
}

// Fset returns the program's shared file set.
func (p *ProgramPass) Fset() *token.FileSet {
	return p.Prog.Packages[0].Fset
}

// Reportf reports a diagnostic at pos unless a justification comment
// suppresses it.
func (p *ProgramPass) Reportf(pos token.Pos, suggestion, format string, args ...any) {
	if p.justifications.has(p.Fset(), pos, p.Analyzer.Justification) {
		return
	}
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...), Suggestion: suggestion})
}

// ProgramAnalyzers is the cross-package suite, in reporting order.
var ProgramAnalyzers = []*ProgramAnalyzer{
	PurityAnalyzer,
}

// RunProgramAnalyzers executes each program analyzer over the program
// and returns the findings sorted by position.
func RunProgramAnalyzers(prog *Program, analyzers []*ProgramAnalyzer) ([]Finding, error) {
	just := make(justifications)
	for _, pkg := range prog.Packages {
		just.add(pkg.Fset, pkg.Files)
	}
	var findings []Finding
	for _, a := range analyzers {
		pass := &ProgramPass{Analyzer: a, Prog: prog, justifications: just}
		pass.Report = func(d Diagnostic) {
			findings = append(findings, Finding{
				Analyzer: a.Name,
				Posn:     pass.Fset().Position(d.Pos),
				Message:  d.Message,
				Suggest:  d.Suggestion,
			})
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	sortFindings(findings)
	return findings, nil
}
