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

// TestMapOrder runs the fence over the map-order fixture: every function
// of the fixture package is a root, as in the deterministic packages.
func TestMapOrder(t *testing.T) {
	a := lint.PurityAnalyzerFor(lint.PurityConfig{RootPackages: []string{"maporder"}})
	linttest.RunProgram(t, a, fixture(t, "maporder"))
}

func TestCtxLoop(t *testing.T) {
	linttest.Run(t, lint.CtxLoopAnalyzer, fixture(t, "ctxloop"))
}

// TestFloatEq runs the fence over the float-equality fixture, rooted
// like TestMapOrder.
func TestFloatEq(t *testing.T) {
	a := lint.PurityAnalyzerFor(lint.PurityConfig{RootPackages: []string{"floateq"}})
	linttest.RunProgram(t, a, fixture(t, "floateq"))
}

func TestLockHeld(t *testing.T) {
	linttest.Run(t, lint.LockHeldAnalyzer, fixture(t, "lockheld"))
}

func TestPurity(t *testing.T) {
	a := lint.PurityAnalyzerFor(lint.PurityConfig{
		RootFuncs: []string{"purity.Root"},
	})
	linttest.RunProgram(t, a, fixture(t, "purity"))
}

func TestGoLeak(t *testing.T) {
	linttest.RunProgram(t, lint.GoLeakAnalyzerFor("goleak"), fixture(t, "goleak"))
}

func TestHTTPContract(t *testing.T) {
	linttest.RunProgram(t, lint.HTTPContractAnalyzerFor("httpcontract"), fixture(t, "httpcontract"))
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
		{"lily/internal/cover", []string{"ctxloop", "lockheld"}},
		{"lily/internal/engine", []string{"ctxloop", "lockheld"}},
		{"lily/internal/server", []string{"ctxloop", "lockheld"}},
		{"lily", []string{"ctxloop", "lockheld"}},
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
