package lint_test

import (
	"path/filepath"
	"testing"

	"lily/internal/lint"
	"lily/internal/lint/linttest"
)

func fixture(t *testing.T, name string) string {
	t.Helper()
	abs, err := filepath.Abs(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatal(err)
	}
	return abs
}

// TestMapOrder runs the fence over the map-order fixture, as over any
// fence package.
func TestMapOrder(t *testing.T) {
	linttest.Run(t, lint.PurityAnalyzer, fixture(t, "maporder"))
}

func TestCtxLoop(t *testing.T) {
	linttest.Run(t, lint.CtxLoopAnalyzer, fixture(t, "ctxloop"))
}

// TestFloatEq runs the fence over the float-equality fixture.
func TestFloatEq(t *testing.T) {
	linttest.Run(t, lint.PurityAnalyzer, fixture(t, "floateq"))
}

func TestPurity(t *testing.T) {
	linttest.Run(t, lint.PurityAnalyzer, fixture(t, "purity"))
}

func TestAnalyzersForScoping(t *testing.T) {
	names := func(as []*lint.Analyzer) []string {
		out := make([]string, len(as))
		for i, a := range as {
			out[i] = a.Name
		}
		return out
	}
	cases := []struct {
		path string
		want []string
	}{
		{"lily/internal/cover", []string{"ctxloop", "purity"}},
		{"lily/internal/engine", []string{"ctxloop"}},
		{"lily/internal/server", []string{"ctxloop"}},
		{"lily", []string{"ctxloop", "purity"}},
		{"fmt", nil},
		{"lilyx/internal/cover", nil}, // prefix confusion must not leak analyzers
	}
	for _, c := range cases {
		got := names(lint.AnalyzersFor(c.path))
		if len(got) != len(c.want) {
			t.Errorf("AnalyzersFor(%q) = %v, want %v", c.path, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("AnalyzersFor(%q) = %v, want %v", c.path, got, c.want)
				break
			}
		}
	}
}
