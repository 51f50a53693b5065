// Command decentlint runs the repository's static-analysis suite: three
// analyzers (nondeterm, rngstream, floatfmt) that enforce the determinism,
// RNG-stream and float-formatting contracts at lint time. See
// internal/lint for the contracts and the //decentlint:allow directive.
// The 0-alloc hot paths are gated by the AllocsPerRun tests, not here.
//
// Usage:
//
//	go run ./cmd/decentlint ./...
//
// Exit status is 0 when the tree is clean, 1 when findings were reported,
// and 2 on a load or internal error. Packages must compile: imports are
// resolved from `go list -export` build artifacts.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/lint"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: decentlint [packages]\n\nruns the decentlint analyzer suite over the given package patterns\n(default ./...) and exits nonzero on any finding.\n\nanalyzers:\n")
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-10s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	findings, err := lint.Run(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "decentlint:", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "decentlint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "decentlint: clean")
}
