package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// The standard library is type-checked from GOROOT source at most once
// per process: every Loader and every linttest fixture parses into
// fileSet and imports the standard library through stdImporter, whose
// package cache is not safe for concurrent use, so stdMu guards it.
var (
	fileSet     = token.NewFileSet()
	stdMu       sync.Mutex
	stdImporter = importer.ForCompiler(fileSet, "source", nil).(types.ImporterFrom)
)

// FileSet returns the process-wide file set that holds the positions of
// every loaded package and of the standard library.
func FileSet() *token.FileSet { return fileSet }

// StdImporter returns the process-wide standard-library importer.
func StdImporter() types.ImporterFrom { return importerFunc(importStd) }

func importStd(path, srcDir string) (*types.Package, error) {
	stdMu.Lock()
	defer stdMu.Unlock()
	return stdImporter.ImportFrom(path, srcDir, 0)
}

// Package is one parsed, type-checked package ready for analysis.
type Package struct {
	Path  string // import path
	Dir   string // absolute directory
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// TypeErrors collects non-fatal type-check problems (e.g. an import
	// the offline source importer could not resolve). Analysis proceeds
	// with whatever type information was recovered.
	TypeErrors []error
}

// Loader parses and type-checks packages of one module without any
// network or toolchain dependency beyond GOROOT sources: module-local
// imports resolve by path prefix against the module directory, stdlib
// imports go through StdImporter.
type Loader struct {
	Fset       *token.FileSet
	ModulePath string
	ModuleDir  string

	pkgs    map[string]*Package
	loading map[string]bool
}

// NewLoader builds a loader for the module rooted at dir (which must
// contain go.mod).
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	modPath, err := readModulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	return &Loader{
		Fset:       fileSet,
		ModulePath: modPath,
		ModuleDir:  abs,
		pkgs:       make(map[string]*Package),
		loading:    make(map[string]bool),
	}, nil
}

func readModulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("lint: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// Load resolves package patterns ("./...", "./internal/cover", an import
// path, or a directory) into loaded packages, sorted by import path.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	seen := make(map[string]bool)
	var paths []string
	add := func(p string) {
		if !seen[p] {
			seen[p] = true
			paths = append(paths, p)
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			dirs, err := l.walkModule()
			if err != nil {
				return nil, err
			}
			for _, d := range dirs {
				add(d)
			}
		case strings.HasSuffix(pat, "/..."):
			root := strings.TrimSuffix(pat, "/...")
			dirs, err := l.walkModule()
			if err != nil {
				return nil, err
			}
			rel := l.importPathFor(root)
			for _, d := range dirs {
				if d == rel || strings.HasPrefix(d, rel+"/") {
					add(d)
				}
			}
		default:
			add(l.importPathFor(pat))
		}
	}
	sort.Strings(paths)
	out := make([]*Package, 0, len(paths))
	for _, p := range paths {
		pkg, err := l.loadPackage(p)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			out = append(out, pkg)
		}
	}
	return out, nil
}

// importPathFor maps a pattern (./internal/cover, internal/cover, or a
// full import path) to an import path.
func (l *Loader) importPathFor(pat string) string {
	pat = strings.TrimPrefix(pat, "./")
	pat = strings.TrimSuffix(pat, "/")
	if pat == "" || pat == "." {
		return l.ModulePath
	}
	if pat == l.ModulePath || strings.HasPrefix(pat, l.ModulePath+"/") {
		return pat
	}
	return l.ModulePath + "/" + pat
}

// walkModule enumerates the import paths of every directory under the
// module root that contains non-test .go files, skipping testdata,
// hidden, and underscore directories.
func (l *Loader) walkModule() ([]string, error) {
	var out []string
	err := filepath.WalkDir(l.ModuleDir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.ModuleDir && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		files, err := goSourceFiles(path)
		if err != nil {
			return err
		}
		if len(files) == 0 {
			return nil
		}
		rel, err := filepath.Rel(l.ModuleDir, path)
		if err != nil {
			return err
		}
		if rel == "." {
			out = append(out, l.ModulePath)
		} else {
			out = append(out, l.ModulePath+"/"+filepath.ToSlash(rel))
		}
		return nil
	})
	return out, err
}

func goSourceFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		files = append(files, filepath.Join(dir, name))
	}
	sort.Strings(files)
	return files, nil
}

// dirFor maps a module-local import path to its directory.
func (l *Loader) dirFor(importPath string) string {
	rel := strings.TrimPrefix(importPath, l.ModulePath)
	rel = strings.TrimPrefix(rel, "/")
	return filepath.Join(l.ModuleDir, filepath.FromSlash(rel))
}

func (l *Loader) isLocal(importPath string) bool {
	return importPath == l.ModulePath || strings.HasPrefix(importPath, l.ModulePath+"/")
}

// loadPackage parses and type-checks one module-local package (memoized).
func (l *Loader) loadPackage(importPath string) (*Package, error) {
	if pkg, ok := l.pkgs[importPath]; ok {
		return pkg, nil
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("lint: import cycle through %s", importPath)
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	dir := l.dirFor(importPath)
	fileNames, err := goSourceFiles(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %s: %w", importPath, err)
	}
	if len(fileNames) == 0 {
		return nil, fmt.Errorf("lint: %s: no Go files in %s", importPath, dir)
	}
	pkg := &Package{Path: importPath, Dir: dir, Fset: l.Fset}
	for _, fn := range fileNames {
		f, err := parser.ParseFile(l.Fset, fn, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		pkg.Files = append(pkg.Files, f)
	}
	conf := types.Config{
		Importer: importerFunc(func(path, srcDir string) (*types.Package, error) {
			return l.importPkg(path, srcDir)
		}),
		Error: func(err error) {
			pkg.TypeErrors = append(pkg.TypeErrors, err)
		},
	}
	pkg.Info = newInfo()
	// Check reports the first hard error; soft errors land in TypeErrors.
	// Either way we keep the (possibly partial) package and info.
	tpkg, err := conf.Check(importPath, l.Fset, pkg.Files, pkg.Info)
	if err != nil && len(pkg.TypeErrors) == 0 {
		pkg.TypeErrors = append(pkg.TypeErrors, err)
	}
	pkg.Types = tpkg
	l.pkgs[importPath] = pkg
	return pkg, nil
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

func (l *Loader) importPkg(path, srcDir string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if l.isLocal(path) {
		pkg, err := l.loadPackage(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return importStd(path, srcDir)
}

// importerFunc adapts a function to types.ImporterFrom.
type importerFunc func(path, srcDir string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) {
	return f(path, "")
}

func (f importerFunc) ImportFrom(path, srcDir string, _ types.ImportMode) (*types.Package, error) {
	return f(path, srcDir)
}
