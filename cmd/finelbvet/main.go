// finelbvet is the repository's vet: it runs the stock `go vet` passes
// plus the finelb-specific analyzer suite (bufown, closecheck,
// detclock, lockcheck, noalloc, obscatalog) over the given package
// patterns and exits nonzero on any finding. CI runs it as a blocking
// gate; locally:
//
//	go run ./cmd/finelbvet ./...
//
// Flags:
//
//	-novet    skip the stock `go vet` passes (custom analyzers only)
//	-list     print the registered analyzers and exit
//	-dir DIR  run as if invoked from DIR
//
// Findings can be suppressed at the offending line (or the line above
// it) with an annotated directive, which must name the analyzer and a
// reason:
//
//	//lint:allow detclock read deadlines honor net-style wall-clock semantics callers set explicitly
//
// A bare or reasonless `//lint:allow` suppresses nothing and is itself
// reported. The suppression policy is documented in DESIGN.md §8.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"

	"finelb/internal/lint"
	"finelb/internal/lint/analysis"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("finelbvet", flag.ExitOnError)
	noVet := fs.Bool("novet", false, "skip the stock `go vet` passes")
	list := fs.Bool("list", false, "print the registered analyzers and exit")
	dir := fs.String("dir", "", "run as if invoked from this directory")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: finelbvet [flags] [package patterns]\n\n")
		fmt.Fprintf(fs.Output(), "Runs go vet plus the finelb analyzer suite (default patterns: ./...).\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	exit := 0
	if !*noVet {
		vet := exec.Command("go", append([]string{"vet"}, patterns...)...)
		vet.Dir = *dir
		vet.Stdout = os.Stdout
		vet.Stderr = os.Stderr
		if err := vet.Run(); err != nil {
			if _, ok := err.(*exec.ExitError); !ok {
				fmt.Fprintf(os.Stderr, "finelbvet: go vet: %v\n", err)
				return 2
			}
			exit = 1
		}
	}

	pkgs, err := analysis.Load(*dir, patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "finelbvet: %v\n", err)
		return 2
	}
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(os.Stderr, "finelbvet: %s: %v\n", pkg.ImportPath, terr)
			exit = 2
		}
	}
	if exit == 2 {
		return 2
	}

	res, err := analysis.Run(lint.Analyzers(), pkgs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "finelbvet: %v\n", err)
		return 2
	}
	for _, d := range res.Diagnostics {
		fmt.Printf("%s: %s: %s\n", res.Fset.Position(d.Pos), d.Analyzer, d.Message)
	}
	if len(res.Diagnostics) > 0 {
		return 1
	}
	return exit
}
