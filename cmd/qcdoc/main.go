// Command qcdoc builds and drives simulated QCDOC machines.
//
// Usage:
//
//	qcdoc info -nodes 1024 -clock 500
//	    packaging, power, cost and bandwidth summary
//
//	qcdoc solve -machine 2,2,2,2 -lattice 8,8,8,8 -op wilson -mass 0.5
//	    boot a machine, run a distributed CG solve, report metrics
//
//	qcdoc scaling -lattice 32,32,32,64
//	    hard-scaling table for a fixed global lattice
//
//	qcdoc estimate -op clover -grid 8,8,8,16 -local 4,4,4,4
//	    analytic solver estimate for a paper-scale machine
//
//	qcdoc chaos -faultseed 16
//	    run a solve under deterministic fault injection: node death,
//	    watchdog detection, checkpoint restore, re-convergence; -soak
//	    adds checkpoint corruption, torn writes, false death reports and
//	    faults during recovery, driven through the recovery ladder
//
//	qcdoc fleet -machine 2,2 -lattices "4,4,4,4;4,4,4,8" -ops wilson,clover -workers 8
//	    run a campaign: many independent machines in one process,
//	    sweeping (lattice × operator × fault seed) over a worker pool;
//	    -verify re-runs it serially and requires identical digests;
//	    -addr 127.0.0.1:9100 observes it and serves /metrics (Prometheus
//	    text), /trace (Chrome trace) and /fleet (live progress) over HTTP
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"qcdoc/internal/core"
	"qcdoc/internal/cost"
	"qcdoc/internal/event"
	"qcdoc/internal/fermion"
	"qcdoc/internal/fleet"
	"qcdoc/internal/geom"
	"qcdoc/internal/lattice"
	"qcdoc/internal/machine"
	"qcdoc/internal/perf"
	"qcdoc/internal/telemetry"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "info":
		cmdInfo(os.Args[2:])
	case "solve":
		cmdSolve(os.Args[2:])
	case "scaling":
		cmdScaling(os.Args[2:])
	case "estimate":
		cmdEstimate(os.Args[2:])
	case "chaos":
		cmdChaos(os.Args[2:])
	case "fleet":
		cmdFleet(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: qcdoc {info|solve|scaling|estimate|chaos|fleet} [flags]")
	os.Exit(2)
}

func parseDims(s string) []int {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad dimension list %q\n", s)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}

func parseShape4(s string) lattice.Shape4 {
	d := parseDims(s)
	if len(d) != 4 {
		fmt.Fprintf(os.Stderr, "need 4 extents, got %q\n", s)
		os.Exit(2)
	}
	return lattice.Shape4{d[0], d[1], d[2], d[3]}
}

// parseMachine reads a command's -machine shape, exiting 2 with the
// command's usage when geom.ParseShape refuses it.
func parseMachine(fs *flag.FlagSet, s string) geom.Shape {
	shape, err := geom.ParseShape(s)
	if err != nil {
		fmt.Fprintf(os.Stderr, "qcdoc %s: -machine: %v\n", fs.Name(), err)
		fs.Usage()
		os.Exit(2)
	}
	return shape
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

func cmdSolve(args []string) {
	fs := flag.NewFlagSet("solve", flag.ExitOnError)
	mshape := fs.String("machine", "2,2,2,2", "six-dimensional machine shape (comma separated)")
	lat := fs.String("lattice", "8,8,8,8", "global lattice")
	op := fs.String("op", "wilson", "operator: wilson|clover|asqtad|dwf")
	mass := fs.Float64("mass", 0.5, "quark mass")
	tol := fs.Float64("tol", 1e-6, "relative tolerance")
	maxIter := fs.Int("maxiter", 500, "iteration limit")
	ls := fs.Int("ls", 8, "fifth dimension (dwf)")
	seed := fs.Uint64("seed", 1, "configuration seed")
	telemetryOut := fs.String("telemetry", "", "write the machine's telemetry registry snapshot (JSON) to this file after the run")
	traceN := fs.Int("trace", 0, "attach a flight recorder holding the last N events (0 = off)")
	chromeOut := fs.String("chrometrace", "", "write the flight-recorder tail as Chrome trace-event JSON to this file")
	fs.Parse(args)

	spec := fleet.Spec{
		Machine: parseMachine(fs, *mshape),
		Global:  parseShape4(*lat),
		Op:      opKind(*op),
		Mass:    *mass,
		Tol:     *tol,
		MaxIter: *maxIter,
		Ls:      *ls,
		Seed:    *seed,
	}
	lay, err := core.NewLayout(spec.Machine, spec.Global)
	fatal(err)
	fmt.Printf("machine %v (%d nodes) folded to grid %v, local volume %v\n",
		spec.Machine, spec.Machine.Volume(), lay.Dec.Grid, lay.Dec.Local)

	cfg := fleet.Config{Observe: *telemetryOut != "", TraceEvents: *traceN}
	if *chromeOut != "" && cfg.TraceEvents <= 0 {
		cfg.TraceEvents = event.DefaultRecorderSize
	}
	r := fleet.Run(cfg, []fleet.Spec{spec})[0]
	fatal(r.Err)
	met := r.Metrics
	fmt.Printf("converged in %d iterations (residual %.2g)\n", met.Iterations, met.RelResidual)
	fmt.Printf("simulated time %v, %.1f Mflops/node sustained = %.1f%% of peak\n",
		met.SimTime, met.SustainedPerNode/1e6, 100*met.Efficiency)
	fmt.Printf("network: %d data words moved, %d resends\n", met.WordsSent, met.Resends)
	fmt.Println("end-of-run link checksum audit: passed")
	fmt.Printf("run digest %#x\n", r.Digest)
	if *telemetryOut != "" {
		fatal(writeTelemetry(*telemetryOut, r))
	}
	if *chromeOut != "" {
		f, err := os.Create(*chromeOut)
		fatal(err)
		err = r.Trace.WriteChromeTrace(f, 0)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		fatal(err)
		fmt.Printf("chrome trace written to %s (open in chrome://tracing)\n", *chromeOut)
	}
}

// traceJSON is one flight-recorder record in the telemetry export.
type traceJSON struct {
	At    event.Time `json:"at"`
	Seq   uint64     `json:"seq"`
	Kind  string     `json:"kind"`
	Actor string     `json:"actor"`
	Arg   uint64     `json:"arg"`
}

// writeTelemetry exports a solve run's registry snapshot — every node's
// SCU, link and CPU counters, the machine-wide counters, gauges and
// latency histograms, the host event queues — plus the flight
// recorder's tail when one was attached.
func writeTelemetry(path string, r fleet.Result) error {
	out := struct {
		telemetry.Snapshot
		Trace []traceJSON `json:"trace,omitempty"`
	}{Snapshot: r.Snap}
	if r.Trace != nil {
		for _, tr := range r.Trace.Tail(0) {
			out.Trace = append(out.Trace, traceJSON{
				At: tr.At, Seq: tr.Seq, Kind: tr.Kind.String(), Actor: tr.Actor(), Arg: tr.Arg,
			})
		}
	}
	blob, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("telemetry snapshot written to %s\n", path)
	return nil
}

func cmdScaling(args []string) {
	fs := flag.NewFlagSet("scaling", flag.ExitOnError)
	lat := fs.String("lattice", "32,32,32,64", "global lattice")
	op := fs.String("op", "wilson", "operator")
	fs.Parse(args)
	global := parseShape4(*lat)
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
	cfg := perf.DefaultConfig(opKind(*op), parseShape4(*grid), event.Hz(*clock)*event.MHz)
	cfg.Local = parseShape4(*local)
	est := perf.CGIteration(cfg)
	fmt.Printf("%d nodes, local %v (%v resident)\n", est.Nodes, cfg.Local, est.Level)
	fmt.Printf("per CG iteration: compute %v, halo %v (hidden: %v), reductions %v\n",
		est.ComputeTime, est.CommRawTime, est.CommRawTime-est.CommTime, est.GsumTime)
	fmt.Printf("sustained %.1f Mflops/node = %.1f%% of peak; machine %.1f Gflops\n",
		est.Sustained/1e6, 100*est.Efficiency, est.MachineGflop)
}

// cmdChaos runs a distributed Wilson solve under a deterministic fault
// plan — inject, detect, isolate, restore, converge — as a one-spec
// campaign, printing the run's narrative and its outcome digest. -soak
// adds the compound second-order preset (checkpoint corruption, a
// spurious death report, a second death during recovery) and attempt
// headroom for the recovery ladder. To check a digest across re-runs,
// run the seeds as `qcdoc fleet -faultseeds ... -verify`.
func cmdChaos(args []string) {
	fs := flag.NewFlagSet("chaos", flag.ExitOnError)
	// Every default is the canonical scenario's, so a bare `qcdoc chaos`
	// is that scenario and its digest is the one the tests pin.
	def := core.CanonicalChaos(16)
	commas := func(v fmt.Stringer) string { return strings.ReplaceAll(v.String(), "x", ",") }
	mshape := fs.String("machine", commas(def.Shape), "six-dimensional machine shape (comma separated)")
	lat := fs.String("lattice", commas(def.Global), "global lattice")
	seed := fs.Uint64("seed", def.Seed, "configuration seed")
	faultSeed := fs.Uint64("faultseed", def.FaultSeed, "fault plan seed (same seed = same faults, same timeline)")
	mass := fs.Float64("mass", def.Mass, "quark mass")
	tol := fs.Float64("tol", def.Tol, "relative tolerance")
	maxIter := fs.Int("maxiter", def.MaxIter, "iteration limit per attempt")
	soak := fs.Bool("soak", false, "compound preset: +2 chunk corruptions, +1 torn write, +1 false death report, +1 recovery crash, 6 attempts")
	recoveryCrashes := fs.Int("recovery-crashes", 0, "second deaths to draw, scheduled relative to the recovery window")
	maxAttempts := fs.Int("max-attempts", 0, "restart budget (0 = default; -soak raises it to 6)")
	quiet := fs.Bool("quiet", false, "suppress the per-event narrative")
	fs.Parse(args)

	// The fault mix is the canonical scenario's (or its -soak compound);
	// the flags move the run, not the mix.
	c := core.CanonicalChaos(*faultSeed)
	c.Shape, c.Global, c.Seed = parseMachine(fs, *mshape), parseShape4(*lat), *seed
	c.Mass, c.Tol, c.MaxIter = *mass, *tol, *maxIter
	c.MaxAttempts = *maxAttempts
	c.Spec.RecoveryCrashes = *recoveryCrashes
	if *soak {
		c = c.Soak()
	}
	var cfg fleet.Config
	if !*quiet {
		cfg.Log = os.Stdout
	}
	r := fleet.Run(cfg, fleet.Sweep(chaosSpec(c), nil, nil, nil))[0]
	if *quiet {
		fmt.Println(r)
	}
	if r.Err != nil {
		os.Exit(1) // the result line carries the error
	}
}

// chaosSpec is the fleet run description of a chaos scenario: the
// fields of c that fleet.Run hands back to core.RunChaosWilson.
func chaosSpec(c core.ChaosConfig) fleet.Spec {
	return fleet.Spec{
		Machine:         c.Shape,
		Global:          c.Global,
		Mass:            c.Mass,
		Tol:             c.Tol,
		MaxIter:         c.MaxIter,
		Seed:            c.Seed,
		Chaos:           true,
		FaultSeed:       c.FaultSeed,
		Faults:          c.Spec,
		CheckpointEvery: c.CheckpointEvery,
		MaxAttempts:     c.MaxAttempts,
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "qcdoc:", err)
		os.Exit(1)
	}
}
