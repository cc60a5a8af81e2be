// Command qcdoc builds and drives simulated QCDOC machines.
//
// Usage:
//
//	qcdoc info -nodes 1024 -clock 500
//	    packaging, power, cost and bandwidth summary
//
//	qcdoc scaling -lattice 32,32,32,64
//	    hard-scaling table for a fixed global lattice
//
//	qcdoc estimate -op clover -grid 8,8,8,16 -local 4,4,4,4
//	    analytic solver estimate for a paper-scale machine
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

	"qcdoc/internal/cost"
	"qcdoc/internal/event"
	"qcdoc/internal/fermion"
	"qcdoc/internal/geom"
	"qcdoc/internal/lattice"
	"qcdoc/internal/machine"
	"qcdoc/internal/perf"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "info":
		cmdInfo(os.Args[2:])
	case "scaling":
		cmdScaling(os.Args[2:])
	case "estimate":
		cmdEstimate(os.Args[2:])
	case "fleet":
		cmdFleet(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: qcdoc {info|scaling|estimate|fleet} [flags]")
	os.Exit(2)
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

func cmdInfo(args []string) {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	nodes := fs.Int("nodes", 1024, "machine size in nodes")
	clock := fs.Int64("clock", 500, "clock in MHz")
	fs.Parse(args)
	atLeastOne(fs, "nodes", int64(*nodes))
	atLeastOne(fs, "clock", *clock)
	hz := event.Hz(*clock) * event.MHz
	p := machine.PackagingFor(*nodes, hz)
	fmt.Println(p)
	fmt.Printf("link payload bandwidth: %.1f MB/s per direction, %.2f GB/s aggregate\n",
		perf.LinkPayloadBandwidth(hz)/1e6, perf.AggregateLinkBandwidth(hz)/1e9)
	fmt.Printf("nearest-neighbour memory-to-memory latency: %v\n", perf.TransferTime(hz, 1))
	if *nodes == 4096 {
		fmt.Println("cost breakdown (the paper's 4096-node machine):")
		fmt.Print(cost.FormatTable())
		for _, pt := range cost.Paper4096Points() {
			fmt.Printf("  $%.2f per sustained Mflops at %d MHz (paper: $%.2f)\n",
				pt.Dollars, int64(pt.Clock)/1_000_000, pt.PaperSays)
		}
	}
}

func cmdScaling(args []string) {
	fs := flag.NewFlagSet("scaling", flag.ExitOnError)
	lat := fs.String("lattice", "32,32,32,64", "global lattice")
	op := fs.String("op", "wilson", "operator")
	fs.Parse(args)
	global := parseShape4(fs, "lattice", *lat)
	grids := []lattice.Shape4{
		{2, 2, 2, 4}, {4, 4, 4, 4}, {4, 4, 4, 16}, {8, 8, 8, 8}, {8, 8, 8, 16},
	}
	pts, err := perf.HardScaling(opKind(*op), global, grids, 500*event.MHz)
	fatal(err)
	fmt.Printf("%8s  %-12s  %-6s  %10s  %10s  %12s\n",
		"nodes", "local", "level", "efficiency", "comm frac", "machine Gf")
	for _, p := range pts {
		fmt.Printf("%8d  %-12v  %-6v  %9.1f%%  %9.1f%%  %12.1f\n",
			p.Nodes, p.Local, p.Estimate.Level, 100*p.Estimate.Efficiency,
			100*p.CommFrac, p.Estimate.MachineGflop)
	}
}

func cmdEstimate(args []string) {
	fs := flag.NewFlagSet("estimate", flag.ExitOnError)
	op := fs.String("op", "wilson", "operator")
	grid := fs.String("grid", "8,8,8,16", "4-D process grid")
	local := fs.String("local", "4,4,4,4", "local volume")
	clock := fs.Int64("clock", 500, "clock MHz")
	fs.Parse(args)
	atLeastOne(fs, "clock", *clock)
	cfg := perf.DefaultConfig(opKind(*op), parseShape4(fs, "grid", *grid), event.Hz(*clock)*event.MHz)
	cfg.Local = parseShape4(fs, "local", *local)
	est := perf.CGIteration(cfg)
	fmt.Printf("%d nodes, local %v (%v resident)\n", est.Nodes, cfg.Local, est.Level)
	fmt.Printf("per CG iteration: compute %v, halo %v (hidden: %v), reductions %v\n",
		est.ComputeTime, est.CommRawTime, est.CommRawTime-est.CommTime, est.GsumTime)
	fmt.Printf("sustained %.1f Mflops/node = %.1f%% of peak; machine %.1f Gflops\n",
		est.Sustained/1e6, 100*est.Efficiency, est.MachineGflop)
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "qcdoc:", err)
		os.Exit(1)
	}
}
