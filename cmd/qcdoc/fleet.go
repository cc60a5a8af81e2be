package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"qcdoc/internal/core"
	"qcdoc/internal/event"
	"qcdoc/internal/fermion"
	"qcdoc/internal/fleet"
	"qcdoc/internal/lattice"
	"qcdoc/internal/machine"
	"qcdoc/internal/obs"
)

// cmdFleet runs every job qcdoc runs: a sweep of (lattice × operator ×
// fault seed) where every run gets its own fully independent simulated
// machine and the campaign is scheduled over a bounded worker pool —
// the fleet substrate of DESIGN.md §14. One lattice and one operator is
// a single solve; -faultseeds runs the solve under the canonical chaos
// scenario (DESIGN.md §12), printing each run's recovery narrative
// unless -quiet. -storm layers the compound second-order fault preset
// (checkpoint corruption, torn writes, false death reports, faults
// during recovery) onto every run; runs that exhaust the recovery
// ladder with a typed error are counted as survived-by-design, not
// failures.
//
// -addr observes the campaign (telemetry on, a flight recorder on every
// solve run) and serves /metrics, /trace and /fleet while it runs, and
// afterwards until killed. -verify re-runs every spec on one worker with
// a fresh pool and observability off and exits 1 unless every run's
// digest is bit-identical; under -addr it first scrapes the endpoints,
// then exits instead of serving on.
func cmdFleet(args []string) {
	fs := flag.NewFlagSet("fleet", flag.ExitOnError)
	mshape := fs.String("machine", "2,2", "six-dimensional machine shape per run (comma separated)")
	lats := fs.String("lattices", "4,4,4,4", "global lattices to sweep, semicolon separated")
	ops := fs.String("ops", "wilson", "operators to sweep, comma separated (wilson|clover|asqtad|dwf)")
	mass := fs.Float64("mass", 0.5, "quark mass")
	tol := fs.Float64("tol", 1e-6, "relative tolerance")
	maxIter := fs.Int("maxiter", 500, "iteration limit")
	ls := fs.Int("ls", 8, "fifth dimension (dwf)")
	seed := fs.Uint64("seed", 1, "configuration seed")
	chaos := fs.Bool("chaos", false, "run each spec through the full fault-injection/recovery pipeline")
	storm := fs.Bool("storm", false, "chaos plus the compound second-order preset; typed ladder exhaustion counts as a survived run")
	faultSeeds := fs.String("faultseeds", "", "fault plan seeds to sweep, comma separated (implies -chaos)")
	workers := fs.Int("workers", 8, "campaign worker pool: how many machines run concurrently")
	addr := fs.String("addr", "", "observe the campaign and serve /metrics /trace /fleet on this address (e.g. 127.0.0.1:9100)")
	verify := fs.Bool("verify", false, "re-run the campaign serially and dark and require identical per-run digests, then exit")
	quiet := fs.Bool("quiet", false, "suppress per-run lines and chaos narratives; print only the summary")
	fs.Parse(args)

	base := fleet.Spec{
		Machine: parseShape(fs, "machine", *mshape, 0),
		Mass:    *mass,
		Tol:     *tol,
		MaxIter: *maxIter,
		Ls:      *ls,
		Seed:    *seed,
	}
	var seeds []uint64
	if *faultSeeds != "" {
		*chaos = true
		for _, f := range strings.Split(*faultSeeds, ",") {
			v, err := strconv.ParseUint(strings.TrimSpace(f), 10, 64)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bad fault seed list %q\n", *faultSeeds)
				os.Exit(2)
			}
			seeds = append(seeds, v)
		}
	}
	if *storm {
		*chaos = true
	}
	if *chaos {
		// A chaos run starts from the canonical scenario (its -soak
		// compound under -storm) on the -machine shape; a flag given on
		// the command line overrides the scenario's value, an unset one
		// keeps it, so a bare -faultseeds run has the pinned digests.
		c := core.CanonicalChaos(0)
		if *storm {
			c = c.Soak()
		}
		set := base
		base = fleet.Spec{
			Machine:         set.Machine,
			Mass:            c.Mass,
			Tol:             c.Tol,
			MaxIter:         c.MaxIter,
			Seed:            c.Seed,
			Chaos:           true,
			Faults:          c.Spec,
			CheckpointEvery: c.CheckpointEvery,
			MaxAttempts:     c.MaxAttempts,
		}
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "mass":
				base.Mass = set.Mass
			case "tol":
				base.Tol = set.Tol
			case "maxiter":
				base.MaxIter = set.MaxIter
			case "seed":
				base.Seed = set.Seed
			}
		})
	}

	var lattices []lattice.Shape4
	for _, l := range strings.Split(*lats, ";") {
		lattices = append(lattices, parseShape4(fs, "lattices", strings.TrimSpace(l)))
	}
	var opKinds []fermion.OpKind
	for _, o := range strings.Split(*ops, ",") {
		k := opKind(strings.TrimSpace(o))
		if *chaos && k != fermion.WilsonKind {
			fmt.Fprintf(os.Stderr, "qcdoc fleet: chaos runs are Wilson only, got -ops %q\n", *ops)
			fs.Usage()
			os.Exit(2)
		}
		opKinds = append(opKinds, k)
	}
	specs := fleet.Sweep(base, lattices, opKinds, seeds)

	cfg := fleet.Config{Workers: *workers, Pool: machine.NewPool()}
	if !*quiet {
		cfg.Log = os.Stdout
	}
	fmt.Printf("fleet: %d runs (machine %v), %d campaign workers\n",
		len(specs), base.Machine, *workers)
	var srv *obs.Server
	var ln net.Listener
	var hasSnap, hasTrace bool
	if *addr != "" {
		var err error
		ln, err = net.Listen("tcp", *addr)
		fatal(err)
		srv = &obs.Server{}
		go http.Serve(ln, srv.Handler())
		fmt.Printf("fleet: serving http://%s (/metrics /trace /fleet)\n", ln.Addr())
		cfg.Observe = true
		cfg.OnResult = newProgress(specs, srv).record
	}
	start := time.Now()
	results := fleet.Run(cfg, specs)
	wall := time.Since(start)
	if srv != nil {
		hasSnap, hasTrace = publishRuns(srv, results)
	}

	// Under -storm, exhausting the recovery ladder with a typed error is
	// a legitimate deterministic outcome — the machine degraded exactly
	// as designed — so only untyped errors count as failures.
	laddered := func(err error) bool {
		return *storm && (errors.Is(err, core.ErrPartitionExhausted) ||
			errors.Is(err, core.ErrCheckpointUnrecoverable))
	}
	failed, exhausted := 0, 0
	for _, r := range results {
		if r.Err == nil {
			continue
		}
		if laddered(r.Err) {
			exhausted++
			continue
		}
		failed++
		fmt.Fprintf(os.Stderr, "qcdoc fleet: %s\n", r)
	}
	if exhausted > 0 {
		fmt.Printf("fleet: %d run(s) exhausted the recovery ladder with a typed error\n", exhausted)
	}
	fmt.Printf("fleet: %d/%d runs ok in %.1fs (%.2f runs/sec), campaign digest %#x\n",
		len(results)-failed, len(results), wall.Seconds(),
		float64(len(results))/wall.Seconds(), fleet.Digest(results))
	st := cfg.Pool.Stats()
	fmt.Printf("fleet: pool recycled %d engine storages, %d frame rings\n", st.StorageReused, st.RingsReused)
	if failed > 0 {
		os.Exit(1)
	}
	if !*verify {
		if srv != nil {
			select {} // serve until killed
		}
		return
	}

	if srv != nil {
		if !scrape(ln.Addr().String(), hasSnap, hasTrace) {
			os.Exit(1)
		}
		fmt.Println("fleet: endpoint scrape ok")
	}
	serial := fleet.Run(fleet.Config{Workers: 1, Pool: machine.NewPool()}, specs)
	bad := 0
	for i := range results {
		if (serial[i].Err != nil && !laddered(serial[i].Err)) || serial[i].Digest != results[i].Digest {
			bad++
			fmt.Fprintf(os.Stderr, "qcdoc fleet: DIGEST MISMATCH %q: campaign %#x, serial dark %#x (err %v)\n",
				results[i].Name, results[i].Digest, serial[i].Digest, serial[i].Err)
		}
	}
	if bad > 0 {
		os.Exit(1)
	}
	fmt.Printf("fleet: verify passed — %d serial dark re-runs, every digest identical\n", len(serial))
}

// progress feeds the live /fleet view. OnResult fires from concurrent
// campaign workers, so every access goes through the mutex; publishing
// under it keeps the published views in completion order.
type progress struct {
	mu      sync.Mutex
	srv     *obs.Server
	specs   []fleet.Spec
	results []fleet.Result
	done    []bool
}

func newProgress(specs []fleet.Spec, srv *obs.Server) *progress {
	p := &progress{srv: srv, specs: specs,
		results: make([]fleet.Result, len(specs)), done: make([]bool, len(specs))}
	srv.PublishFleet(fleetStatus(specs, p.results, p.done))
	return p
}

// record is the fleet.Config.OnResult hook.
func (p *progress) record(i int, r fleet.Result) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.results[i], p.done[i] = r, true
	p.srv.PublishFleet(fleetStatus(p.specs, p.results, p.done))
}

// fleetStatus is the /fleet view of a campaign whose runs marked in done
// have finished; once every run has, it carries the campaign digest.
func fleetStatus(specs []fleet.Spec, results []fleet.Result, done []bool) obs.FleetStatus {
	st := obs.FleetStatus{Total: len(specs)}
	var finished []fleet.Result
	for i, s := range specs {
		run := obs.FleetRun{Name: s.Name}
		if done[i] {
			r := results[i]
			st.Done++
			run.Done, run.Converged = true, r.Converged
			run.Iterations, run.Attempts = r.Iterations, r.Attempts
			run.Digest = obs.DigestString(r.Digest)
			if r.Err != nil {
				st.Failed++
				run.Err = r.Err.Error()
			}
			finished = append(finished, r)
		}
		st.Runs = append(st.Runs, run)
	}
	if st.Done == st.Total {
		st.Digest = obs.DigestString(fleet.Digest(results))
	}
	st.Hists = fleet.Aggregate(finished)
	return st
}

// publishRuns puts the finished campaign's last successful solve
// snapshot on /metrics and its merged flight recorders on /trace, and
// reports which of the two it published.
func publishRuns(srv *obs.Server, results []fleet.Result) (snap, trace bool) {
	for i := len(results) - 1; i >= 0 && !snap; i-- {
		if snap = results[i].Err == nil && results[i].Snap.Counters != nil; snap {
			srv.PublishMetrics(results[i].SimTime, results[i].Snap)
		}
	}
	var recs []*event.Recorder
	for _, r := range results {
		if r.Trace != nil {
			recs = append(recs, r.Trace)
		}
	}
	if len(recs) > 0 {
		var sb strings.Builder
		if err := event.WriteChromeTraceMerged(&sb, recs, 0); err == nil {
			srv.PublishTrace([]byte(sb.String()))
			trace = true
		}
	}
	return snap, trace
}

// scrape reads the campaign back through its own HTTP endpoints: the
// fleet counters and campaign-aggregate histograms on /metrics, the
// digest on /fleet, and — where publishRuns published them — a run's
// machine histograms on /metrics and the merged trace on /trace.
func scrape(addr string, hasSnap, hasTrace bool) bool {
	checks := [][2]string{
		{"/metrics", "qcdoc_fleet_runs_total"},
		{"/metrics", "qcdoc_fleet_machine_gsum_rtt_ps"},
		{"/fleet", `"digest"`},
	}
	if hasSnap {
		checks = append(checks, [2]string{"/metrics", "qcdoc_machine_gsum_rtt_ps"})
	}
	if hasTrace {
		checks = append(checks, [2]string{"/trace", `"traceEvents"`})
	}
	for _, c := range checks {
		resp, err := http.Get("http://" + addr + c[0])
		if err != nil {
			fmt.Fprintf(os.Stderr, "qcdoc fleet: scrape %s: %v\n", c[0], err)
			return false
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), c[1]) {
			fmt.Fprintf(os.Stderr, "qcdoc fleet: scrape %s: status %d, want %q in body\n",
				c[0], resp.StatusCode, c[1])
			return false
		}
	}
	return true
}
