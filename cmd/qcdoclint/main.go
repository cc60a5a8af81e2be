// Command qcdoclint is the driver for the simulator's static-analysis
// suite (internal/analysis, DESIGN.md §11). It loads the packages
// matched by its arguments with the stdlib type checker and applies
// every registered analyzer:
//
//	crossalias — values crossing shard boundaries must be deep-value,
//	             tracked through the package call graph
//
// Usage:
//
//	qcdoclint [packages]         # default ./...
//	qcdoclint -tests [packages]  # also lint in-package _test.go files
//	qcdoclint -list              # print the analyzers and exit
//
// Findings print one per line as file:line:col: message (analyzer).
// Exit status: 0 clean, 1 diagnostics reported (including stale or
// unknown waivers), 2 operational error. `make lint` runs it over ./...
// with -tests as part of the standard gate.
package main

import (
	"flag"
	"fmt"
	"os"

	"qcdoc/internal/analysis/driver"
)

func main() {
	listFlag := flag.Bool("list", false, "print the analyzers and exit")
	testsFlag := flag.Bool("tests", false, "also lint in-package _test.go files")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: qcdoclint [-list] [-tests] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *listFlag {
		for _, a := range driver.Suite {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		return
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := driver.List(patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "qcdoclint: %v\n", err)
		os.Exit(2)
	}
	os.Exit(driver.Lint(pkgs, driver.Options{Tests: *testsFlag}))
}
