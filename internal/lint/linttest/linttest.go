// Package linttest is the fixture harness for the lint analyzers — a
// stdlib-only analogue of golang.org/x/tools/go/analysis/analysistest.
// A fixture is a directory of Go files under internal/lint/testdata/src,
// loaded as one package; Run applies one analyzer to all of it, as the
// driver does to a package in the analyzer's scope. Lines that should be
// flagged carry a `// want `+"`regex`"+“ comment, and the harness fails
// the test on any unmatched diagnostic or unsatisfied expectation.
package linttest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"lily/internal/lint"
)

var wantRE = regexp.MustCompile("`([^`]*)`")

// expectation is one `// want` annotation.
type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// Run executes one analyzer over the fixture directory and compares its
// diagnostics against the `// want` annotations.
func Run(t *testing.T, a *lint.Analyzer, dir string) {
	t.Helper()
	pkg, err := loadFixture(dir)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	if len(pkg.TypeErrors) > 0 {
		t.Fatalf("fixture %s has type errors: %v", dir, pkg.TypeErrors)
	}
	findings, err := lint.RunAnalyzers(pkg, []*lint.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, dir, err)
	}
	compare(t, pkg, findings)
}

// compare checks findings against the fixture's want annotations.
func compare(t *testing.T, pkg *lint.Package, findings []lint.Finding) {
	t.Helper()
	expects, err := collectExpectations(pkg.Fset, pkg.Files)
	if err != nil {
		t.Fatalf("parsing want comments: %v", err)
	}
	for _, f := range findings {
		if !matchExpectation(expects, f) {
			t.Errorf("unexpected diagnostic:\n%s", f)
		}
	}
	for _, e := range expects {
		if !e.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none",
				e.file, e.line, e.pattern)
		}
	}
}

func matchExpectation(expects []*expectation, f lint.Finding) bool {
	for _, e := range expects {
		if e.matched || e.line != f.Posn.Line || filepath.Base(e.file) != filepath.Base(f.Posn.Filename) {
			continue
		}
		if e.pattern.MatchString(f.Message) {
			e.matched = true
			return true
		}
	}
	return false
}

// collectExpectations extracts `// want `+"`re`"+“ annotations.
func collectExpectations(fset *token.FileSet, files []*ast.File) ([]*expectation, error) {
	var out []*expectation
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				rest, ok := strings.CutPrefix(text, "want ")
				if !ok {
					continue
				}
				posn := fset.Position(c.Pos())
				ms := wantRE.FindAllStringSubmatch(rest, -1)
				if len(ms) == 0 {
					return nil, fmt.Errorf("%s: want comment without backquoted pattern", posn)
				}
				for _, m := range ms {
					re, err := regexp.Compile(m[1])
					if err != nil {
						return nil, fmt.Errorf("%s: bad want pattern: %w", posn, err)
					}
					out = append(out, &expectation{file: posn.Filename, line: posn.Line, pattern: re})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].file != out[j].file {
			return out[i].file < out[j].file
		}
		return out[i].line < out[j].line
	})
	return out, nil
}

// loadFixture parses and type-checks the single package in dir. Imports
// resolve through lint.StdImporter (stdlib only; fixtures must not import
// module packages).
func loadFixture(dir string) (*lint.Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	fset := lint.FileSet()
	pkg := &lint.Package{Path: filepath.Base(dir), Dir: dir, Fset: fset}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		pkg.Files = append(pkg.Files, f)
	}
	if len(pkg.Files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	pkg.TypeCheck(lint.StdImporter())
	return pkg, nil
}
