// Command lilylint is the project's static-analysis suite:
//
//	lilylint [package pattern ...]   (default ./...)
//
// It loads the whole module offline, runs every analyzer, and prints the
// findings in the requested packages. The suite enforces the invariants
// documented in DESIGN.md §9: context cancellation in long-running loops
// (ctxloop) in every package, and the determinism fence over the
// whole-program call graph (purity: no wall clock, environment, global
// rand, order-dependent map iteration or exact float comparison in the
// mapping packages or anything they reach).
//
// Exit codes: 0 clean, 1 findings, 2 operational error.
package main

import (
	"fmt"
	"os"
	"path/filepath"

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
	fmt.Fprintf(os.Stderr, "\nAnalyzers (every package in the module):\n")
	for _, an := range lint.Analyzers {
		fmt.Fprintf(os.Stderr, "  %-12s %s\n", an.Name, an.Doc)
	}
	fmt.Fprintf(os.Stderr, "\nCross-package analyzers (whole-program call graph):\n")
	for _, an := range lint.ProgramAnalyzers {
		fmt.Fprintf(os.Stderr, "  %-12s %s\n", an.Name, an.Doc)
	}
}
