// Command qcdoc builds and drives simulated QCDOC machines.
//
// Usage:
//
//	qcdoc fleet -machine 2,2,2,2 -lattices 8,8,8,8 -ops wilson -mass 0.5
//	    run every job: boot a machine per run, solve, report iterations,
//	    % of peak and the run digest; several -lattices and -ops make a
//	    campaign of independent machines in one process over a worker pool
//
//	qcdoc fleet -machine 2,2,2 -faultseeds 16
//	    the solve under deterministic fault injection: node death,
//	    watchdog detection, checkpoint restore, re-convergence; -storm
//	    adds checkpoint corruption, torn writes, false death reports and
//	    faults during recovery, driven through the recovery ladder
//
//	    -verify re-runs any campaign serially and requires identical
//	    digests; -addr 127.0.0.1:9100 observes it and serves /metrics
//	    (Prometheus text), /trace (Chrome trace) and /fleet (live
//	    progress) over HTTP
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"qcdoc/internal/fermion"
	"qcdoc/internal/geom"
	"qcdoc/internal/lattice"
)

func main() {
	if len(os.Args) < 2 || os.Args[1] != "fleet" {
		fmt.Fprintln(os.Stderr, "usage: qcdoc fleet [flags]")
		os.Exit(2)
	}
	cmdFleet(os.Args[2:])
}

// parseShape reads the extent list of a command's flag name by
// geom.ParseShape's rule, every extent a whole number of at least 1,
// with exactly dims extents when dims > 0; it exits 2 with the
// command's usage on anything else.
func parseShape(fs *flag.FlagSet, name, s string, dims int) geom.Shape {
	shape, err := geom.ParseShape(s)
	if err == nil && dims > 0 && strings.Count(s, ",")+1 != dims {
		err = fmt.Errorf("need %d extents, got %q", dims, s)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "qcdoc %s: -%s: %v\n", fs.Name(), name, err)
		fs.Usage()
		os.Exit(2)
	}
	return shape
}

// parseShape4 reads a flag's 4-D lattice or process grid.
func parseShape4(fs *flag.FlagSet, name, s string) lattice.Shape4 {
	e := parseShape(fs, name, s, 4)
	return lattice.Shape4{e[0], e[1], e[2], e[3]}
}

// atLeastOne exits 2 with the command's usage when a count or rate
// flag is below 1.
func atLeastOne(fs *flag.FlagSet, name string, v int64) {
	if v < 1 {
		fmt.Fprintf(os.Stderr, "qcdoc %s: -%s %d: must be at least 1\n", fs.Name(), name, v)
		fs.Usage()
		os.Exit(2)
	}
}

func opKind(s string) fermion.OpKind {
	switch s {
	case "wilson":
		return fermion.WilsonKind
	case "clover":
		return fermion.CloverKind
	case "asqtad":
		return fermion.AsqtadKind
	case "dwf":
		return fermion.DWFKind
	default:
		fmt.Fprintf(os.Stderr, "unknown operator %q (wilson|clover|asqtad|dwf)\n", s)
		os.Exit(2)
		return 0
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "qcdoc:", err)
		os.Exit(1)
	}
}
