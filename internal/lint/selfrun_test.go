package lint_test

import (
	"bytes"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lily/internal/lint"
)

// TestAllAnalyzers is the self-run: the tree must be clean under the
// same driver entry point cmd/lilylint calls, so `go test ./...` fails
// the moment someone introduces an unsorted map range into
// internal/cover, an uncancellable solver loop, a raw float cost
// comparison, an unlocked call to a `requires mu` method, or a type
// error the offline loader cannot resolve. The CI lint job runs the
// same driver through `lilylint ./...`.
func TestAllAnalyzers(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	if code, out := runLint(t, moduleRoot(t), "./..."); code != 0 {
		t.Errorf("lint.Run(./...) exit %d, want 0:\n%s", code, out)
	}
}

// loadProgram loads the whole module and builds the call graph.
func loadProgram(t *testing.T, root string) *lint.Program {
	t.Helper()
	loader, err := lint.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	return lint.BuildProgram(pkgs)
}

func moduleRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// TestPurityRootSetReachability proves the fence actually spans the
// mapping pipeline: the whole-flow entry points and cost kernels must
// pull a large multi-package closure into the reachable set. If a root
// rename or a call-graph regression shrank the fence, this fails before
// any nondeterminism could hide in the gap.
func TestPurityRootSetReachability(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	prog := loadProgram(t, moduleRoot(t))
	g := prog.Graph
	cfg := lint.DefaultPurityConfig()

	var roots []*types.Func
	for _, p := range cfg.RootPackages {
		fns := g.FuncsInPackage(p)
		if len(fns) == 0 {
			t.Fatalf("root package %s resolved no functions", p)
		}
		roots = append(roots, fns...)
	}
	for _, name := range cfg.RootFuncs {
		fn := g.FuncByName(name)
		if fn == nil {
			t.Fatalf("root function %s not found — the fence silently shrank", name)
		}
		roots = append(roots, fn)
	}

	exempt := make(map[string]bool)
	for _, p := range cfg.ExemptPackages {
		exempt[p] = true
	}
	reach := g.Reachable(roots, func(n *lint.CGNode) bool {
		return n.Pkg != nil && exempt[n.Pkg.Path]
	})

	pkgsSeen := make(map[string]bool)
	for _, n := range reach {
		if n.Pkg != nil {
			pkgsSeen[n.Pkg.Path] = true
		}
	}
	// The flow behind RunFlowContext must reach the core mapper, logic
	// decomposition, netlist construction, and layout.
	for _, want := range []string{
		"lily/internal/core", "lily/internal/logic", "lily/internal/decomp",
		"lily/internal/netlist", "lily/internal/layout", "lily/internal/cover",
		"lily/internal/wire", "lily/internal/timing", "lily/internal/place",
		"lily/internal/cut", "lily/internal/match",
	} {
		if !pkgsSeen[want] {
			t.Errorf("package %s is not reachable from the purity root set; the fence has a hole", want)
		}
	}
	if pkgsSeen["lily/internal/obs"] {
		t.Error("exempt package lily/internal/obs appears in the reachable set")
	}
}

// TestPurityCatchesMutations is the negative proof the fence demands.
// Four planted defects must each produce a purity finding through the
// driver:
//
//  1. a time.Now() call in a new file in internal/wire;
//  2. deletion of a `//lint:sorted` justification in internal/core;
//  3. an order-dependent map range in a new, uncalled function in
//     internal/logic — only the package-wide root scope sees it;
//  4. deletion of a `//lint:exact` justification in
//     internal/layout/leftedge.go, whose comparators no flow path calls.
//
// The module is copied into a temp dir, mutated there, and re-analyzed;
// the working tree is never touched.
func TestPurityCatchesMutations(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks a module copy; skipped in -short")
	}
	tmp := t.TempDir()
	copyModule(t, moduleRoot(t), tmp)
	plantWallClock(t, tmp)
	deleteFirstMarker(t, filepath.Join(tmp, "internal", "core", "core.go"), "//lint:sorted")
	writeFile(t, filepath.Join(tmp, "internal", "logic", "zz_maporder.go"),
		"package logic\n\n"+
			"func injectedMapOrder(m map[string]int) []string {\n"+
			"\tvar out []string\n"+
			"\tfor k := range m {\n\t\tout = append(out, k)\n\t}\n"+
			"\treturn out\n}\n")
	deleteFirstMarker(t, filepath.Join(tmp, "internal", "layout", "leftedge.go"), "//lint:exact")

	code, out := runLint(t, tmp, "./...")
	if code != 1 {
		t.Fatalf("lint.Run exit %d, want 1:\n%s", code, out)
	}
	for _, plant := range []struct{ file, message string }{
		{filepath.Join("internal", "wire", "zz_injected.go"), "wall clock"},
		{filepath.Join("internal", "core", "core.go"), "order-dependent"},
		{filepath.Join("internal", "logic", "zz_maporder.go"), "order-dependent"},
		{filepath.Join("internal", "layout", "leftedge.go"), "exact !="},
	} {
		if !reported(out, plant.file, plant.message) {
			t.Errorf("purity missed the %q plant in %s:\n%s", plant.message, plant.file, out)
		}
	}
}

// TestRunSubsetKeepsFence runs the driver on one package: the fence
// still covers it, because program analyzers always load the whole
// module and report the findings that fall in the requested packages.
func TestRunSubsetKeepsFence(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks a module copy; skipped in -short")
	}
	tmp := t.TempDir()
	copyModule(t, moduleRoot(t), tmp)
	plantWallClock(t, tmp)

	code, out := runLint(t, tmp, "./internal/wire/")
	if code != 1 {
		t.Fatalf("lint.Run(./internal/wire/) exit %d, want 1:\n%s", code, out)
	}
	if !reported(out, filepath.Join("internal", "wire", "zz_injected.go"), "wall clock") {
		t.Errorf("subset run missed the planted time.Now() in internal/wire:\n%s", out)
	}
}

// runLint runs the driver over the module at root and returns its exit
// code and printed findings.
func runLint(t *testing.T, root string, patterns ...string) (int, string) {
	t.Helper()
	var out bytes.Buffer
	code, err := lint.Run(root, patterns, &out)
	if err != nil {
		t.Fatal(err)
	}
	return code, out.String()
}

// reported reports whether out holds a finding in a file ending in
// file whose message contains message.
func reported(out, file, message string) bool {
	for _, line := range strings.Split(out, "\n") {
		if i := strings.Index(line, ".go:"); i >= 0 &&
			strings.HasSuffix(line[:i+3], file) && strings.Contains(line, message) {
			return true
		}
	}
	return false
}

// plantWallClock adds a wall-clock read to internal/wire under root.
// Every wire function is a purity root, so it is in the fence by
// construction.
func plantWallClock(t *testing.T, root string) {
	t.Helper()
	writeFile(t, filepath.Join(root, "internal", "wire", "zz_injected.go"),
		"package wire\n\nimport \"time\"\n\n"+
			"func injectedWallClock() time.Time { return time.Now() }\n")
}

// deleteFirstMarker removes the first line of path containing marker,
// un-suppressing the finding it justified.
func deleteFirstMarker(t *testing.T, path, marker string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")
	for i, l := range lines {
		if strings.Contains(l, marker) {
			lines = append(lines[:i], lines[i+1:]...)
			writeFile(t, path, strings.Join(lines, "\n"))
			return
		}
	}
	t.Fatalf("%s carries no %s annotation to delete; update the mutation", path, marker)
}

func writeFile(t *testing.T, path, src string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
}

// copyModule copies go.mod and every non-test Go file of the module at
// src into dst, preserving the directory layout.
func copyModule(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != src && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || name == "bin") {
				return fs.SkipDir
			}
			return nil
		}
		if name != "go.mod" && (!strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go")) {
			return nil
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		out := filepath.Join(dst, rel)
		if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(out, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}
