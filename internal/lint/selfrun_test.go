package lint_test

import (
	"bytes"
	"io"
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
// comparison, or a type error the offline loader cannot resolve. The CI
// lint job runs the same driver through `lilylint ./...`.
func TestAllAnalyzers(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	if code, out := runLint(t, moduleRoot(t), "./..."); code != 0 {
		t.Errorf("lint.Run(./...) exit %d, want 0:\n%s", code, out)
	}
}

func moduleRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// TestPurityCatchesMutations is the negative proof the fence demands.
// Five planted defects must each produce a purity finding through the
// driver:
//
//  1. a time.Now() call in a new file in internal/wire;
//  2. deletion of a `//lint:sorted` justification in internal/core;
//  3. an order-dependent map range in a new, uncalled function in
//     internal/logic;
//  4. deletion of a `//lint:exact` justification in
//     internal/layout/leftedge.go, whose comparators no flow path calls;
//  5. a time.Now() call in lily.runPipeline, in the root package.
//
// A sixth must make the driver fail closed (exit 2), naming both
// packages:
//
//  6. a new package internal/zzclock that calls time.Now, imported from
//     internal/wire: the fence would no longer be closed under imports.
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
	replaceOnce(t, filepath.Join(tmp, "lily.go"), "import (\n", "import (\n\t\"time\"\n")
	pipeline := "func runPipeline(ctx context.Context, c *Circuit, opt FlowOptions) (*FlowResult, *layout.Result, error) {\n"
	replaceOnce(t, filepath.Join(tmp, "lily.go"), pipeline, pipeline+"\t_ = time.Now()\n")

	code, out := runLint(t, tmp, "./...")
	if code != 1 {
		t.Fatalf("lint.Run exit %d, want 1:\n%s", code, out)
	}
	for _, plant := range []struct{ file, message string }{
		{filepath.Join("internal", "wire", "zz_injected.go"), "wall clock"},
		{filepath.Join("internal", "core", "core.go"), "order-dependent"},
		{filepath.Join("internal", "logic", "zz_maporder.go"), "order-dependent"},
		{filepath.Join("internal", "layout", "leftedge.go"), "exact !="},
		{string(filepath.Separator) + "lily.go", "wall clock"},
	} {
		if !reported(out, plant.file, plant.message) {
			t.Errorf("purity missed the %q plant in %s:\n%s", plant.message, plant.file, out)
		}
	}

	if err := os.Mkdir(filepath.Join(tmp, "internal", "zzclock"), 0o755); err != nil {
		t.Fatal(err)
	}
	writeFile(t, filepath.Join(tmp, "internal", "zzclock", "zzclock.go"),
		"package zzclock\n\nimport \"time\"\n\n"+
			"func Now() time.Time { return time.Now() }\n")
	writeFile(t, filepath.Join(tmp, "internal", "wire", "zz_clock.go"),
		"package wire\n\nimport \"lily/internal/zzclock\"\n\n"+
			"var injectedClock = zzclock.Now\n")
	code, err := lint.Run(tmp, []string{"./..."}, io.Discard)
	if code != 2 || err == nil ||
		!strings.Contains(err.Error(), "lily/internal/wire imports lily/internal/zzclock") {
		t.Errorf("lint.Run with wire importing an unfenced package = %d, %v; want exit 2 naming both packages", code, err)
	}
}

// TestFenceMissingPackage: a fence package missing from the module is an
// operational error, so renaming or deleting one cannot shrink the
// fence unnoticed. The module here holds only the root package.
func TestFenceMissingPackage(t *testing.T) {
	tmp := t.TempDir()
	writeFile(t, filepath.Join(tmp, "go.mod"), "module lily\n\ngo 1.22\n")
	writeFile(t, filepath.Join(tmp, "lily.go"), "package lily\n")
	code, err := lint.Run(tmp, []string{"./..."}, io.Discard)
	if code != 2 || err == nil ||
		!strings.Contains(err.Error(), "fence package lily/internal/wire is missing") {
		t.Errorf("lint.Run on a module without the fence packages = %d, %v; want exit 2 naming them", code, err)
	}
}

// TestRunSubsetKeepsFence runs the driver on one package: the fence
// still covers it, because purity applies to every requested fence
// package however the packages were named.
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
// internal/wire is a fence package, so the read is in the fence by
// construction.
func plantWallClock(t *testing.T, root string) {
	t.Helper()
	writeFile(t, filepath.Join(root, "internal", "wire", "zz_injected.go"),
		"package wire\n\nimport \"time\"\n\n"+
			"func injectedWallClock() time.Time { return time.Now() }\n")
}

// replaceOnce replaces the first occurrence of old in path with new.
func replaceOnce(t *testing.T, path, old, new string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), old) {
		t.Fatalf("%s holds no %q; update the mutation", path, old)
	}
	writeFile(t, path, strings.Replace(string(data), old, new, 1))
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
