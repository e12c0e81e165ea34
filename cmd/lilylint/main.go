// Command lilylint is the project's static-analysis suite:
//
//	lilylint [package pattern ...]   (default ./...)
//
// It loads the whole module offline, runs each analyzer over the
// requested packages in its scope, and prints the findings. The suite
// enforces the invariants documented in DESIGN.md §9: context
// cancellation in long-running loops (ctxloop) in every package, and the
// determinism fence (purity: no wall clock, environment, global rand,
// order-dependent map iteration or exact float comparison) in the fence
// packages, a fixed list closed under module imports. `lilylint -h`
// prints each analyzer with its scope.
//
// Exit codes: 0 clean, 1 findings, 2 operational error (including a
// fence package missing from the module, or one importing a module
// package outside the fence).
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"lily/internal/lint"
)

func main() {
	os.Exit(run(os.Args))
}

func run(argv []string) int {
	progname := filepath.Base(argv[0])
	patterns := argv[1:]
	for _, a := range patterns {
		if a == "-h" || a == "-help" || a == "--help" {
			usage(progname)
			return 0
		}
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	code, err := lint.Run(".", patterns, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", progname, err)
	}
	return code
}

func usage(progname string) {
	fmt.Fprintf(os.Stderr, "usage: %s [package pattern ...]   (default ./...)\n", progname)
	fmt.Fprintf(os.Stderr, "\nAnalyzers:\n")
	for _, an := range lint.Analyzers {
		scope := "every package in the module"
		if an == lint.PurityAnalyzer {
			scope = "the fence packages: " + strings.Join(lint.FencePackages, ", ")
		}
		fmt.Fprintf(os.Stderr, "  %-8s %s\n  %-8s scope: %s\n", an.Name, an.Doc, "", scope)
	}
}
