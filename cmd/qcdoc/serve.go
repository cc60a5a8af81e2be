package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"

	"qcdoc/internal/event"
	"qcdoc/internal/fermion"
	"qcdoc/internal/fleet"
	"qcdoc/internal/lattice"
	"qcdoc/internal/machine"
	"qcdoc/internal/obs"
	"qcdoc/internal/telemetry"
)

// cmdServe runs an observed solve campaign and serves the observability
// plane over HTTP: Prometheus-text /metrics, a merged Chrome trace on
// /trace, and live campaign progress on /fleet. The campaign runs with
// the full telemetry layer on; its digests are bit-identical to an
// unobserved campaign's — with -selfcheck the command proves that by
// scraping its own endpoints, re-running the campaign unobserved, and
// exiting nonzero on any digest difference.
func cmdServe(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:9100", "listen address")
	mshape := fs.String("machine", "2,2", "six-dimensional machine shape per run (comma separated)")
	lats := fs.String("lattices", "4,4,4,4", "global lattices to sweep, semicolon separated")
	ops := fs.String("ops", "wilson", "operators to sweep, comma separated (wilson|clover|asqtad|dwf)")
	mass := fs.Float64("mass", 0.5, "quark mass")
	tol := fs.Float64("tol", 1e-6, "relative tolerance")
	maxIter := fs.Int("maxiter", 500, "iteration limit")
	seed := fs.Uint64("seed", 1, "configuration seed")
	workers := fs.Int("workers", 4, "campaign worker pool")
	traceN := fs.Int("trace", 4096, "flight-recorder events per shard per run (0 = no /trace)")
	selfcheck := fs.Bool("selfcheck", false, "scrape own endpoints, re-run unobserved, verify digests, then exit")
	quiet := fs.Bool("quiet", false, "suppress per-run lines")
	fs.Parse(args)

	base := fleet.Spec{
		Machine: parseMachine(*mshape),
		Mass:    *mass,
		Tol:     *tol,
		MaxIter: *maxIter,
		Seed:    *seed,
	}
	var lattices []lattice.Shape4
	for _, l := range strings.Split(*lats, ";") {
		lattices = append(lattices, parseShape4(strings.TrimSpace(l)))
	}
	var opKinds []fermion.OpKind
	for _, o := range strings.Split(*ops, ",") {
		opKinds = append(opKinds, opKind(strings.TrimSpace(o)))
	}
	specs := fleet.Sweep(base, lattices, opKinds, nil)

	srv := &obs.Server{}
	listenAddr := *addr
	if *selfcheck {
		listenAddr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", listenAddr)
	fatal(err)
	go http.Serve(ln, srv.Handler())
	fmt.Printf("qcdoc serve: listening on http://%s (/metrics /trace /fleet), %d runs\n",
		ln.Addr(), len(specs))

	// Live progress: each completed run republishes the campaign status,
	// so /fleet and the fleet counters on /metrics move while the
	// campaign runs. The tracker mirrors results because fleet.Run's
	// result slice is not ours to read until it returns.
	prog := newProgress(len(specs), specs, srv)
	cfg := fleet.Config{
		Workers:     *workers,
		Pool:        machine.NewPool(),
		Observe:     true,
		TraceEvents: *traceN,
		OnResult:    prog.record,
	}
	if !*quiet {
		cfg.Log = os.Stdout
	}
	results := fleet.Run(cfg, specs)
	publishFinal(srv, specs, results)
	fmt.Printf("qcdoc serve: campaign done, digest %#x\n", fleet.Digest(results))

	if *selfcheck {
		os.Exit(runSelfcheck(ln.Addr().String(), specs, results, *workers))
	}
	select {} // serve forever
}

// progress tracks run completions for the live /fleet view. OnResult
// fires from concurrent campaign workers, so every access goes through
// the mutex.
type progress struct {
	mu    sync.Mutex
	srv   *obs.Server
	specs []fleet.Spec
	done  []fleet.Result
	seen  []bool
}

func newProgress(n int, specs []fleet.Spec, srv *obs.Server) *progress {
	p := &progress{srv: srv, specs: specs, done: make([]fleet.Result, n), seen: make([]bool, n)}
	srv.PublishFleet(p.status())
	return p
}

// record is the fleet.Config.OnResult hook.
func (p *progress) record(i int, r fleet.Result) {
	p.mu.Lock()
	p.done[i] = r
	p.seen[i] = true
	p.mu.Unlock()
	p.srv.PublishFleet(p.status())
}

func (p *progress) status() obs.FleetStatus {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := obs.FleetStatus{Total: len(p.specs)}
	var finished []fleet.Result
	for i := range p.specs {
		run := obs.FleetRun{Name: p.specs[i].Name}
		if p.seen[i] {
			r := p.done[i]
			st.Done++
			run.Done = true
			run.Converged = r.Converged
			run.Iterations = r.Iterations
			run.Attempts = r.Attempts
			run.Digest = obs.DigestString(r.Digest)
			if r.Err != nil {
				st.Failed++
				run.Err = r.Err.Error()
			}
			finished = append(finished, r)
		}
		st.Runs = append(st.Runs, run)
	}
	st.Hists = fleet.Aggregate(finished)
	return st
}

// publishFinal installs the completed campaign's full observability:
// final /fleet status with the campaign digest, the last run's full
// telemetry snapshot on /metrics, and the merged Chrome trace.
func publishFinal(srv *obs.Server, specs []fleet.Spec, results []fleet.Result) {
	st := obs.FleetStatus{Total: len(specs)}
	for i, r := range results {
		run := obs.FleetRun{
			Name: specs[i].Name, Done: true, Converged: r.Converged,
			Iterations: r.Iterations, Attempts: r.Attempts,
			Digest: obs.DigestString(r.Digest),
		}
		st.Done++
		if r.Err != nil {
			st.Failed++
			run.Err = r.Err.Error()
		}
		st.Runs = append(st.Runs, run)
	}
	st.Digest = obs.DigestString(fleet.Digest(results))
	st.Hists = fleet.Aggregate(results)
	srv.PublishFleet(st)

	for i := len(results) - 1; i >= 0; i-- {
		if results[i].Err == nil && results[i].Snap.Counters != nil {
			snap := results[i].Snap
			if snap.Histograms == nil {
				snap.Histograms = map[string]telemetry.HistogramSnapshot{}
			}
			srv.PublishMetrics(results[i].SimTime, snap)
			break
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
		}
	}
}

// runSelfcheck is the `make obs` CI gate: scrape our own endpoints,
// then re-run the identical campaign with observability fully off and
// require bit-identical digests — the zero-perturbation contract,
// proven end to end through the HTTP surface.
func runSelfcheck(addr string, specs []fleet.Spec, observed []fleet.Result, workers int) int {
	scrape := func(path string, want string) bool {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "qcdoc serve: selfcheck GET %s: %v\n", path, err)
			return false
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), want) {
			fmt.Fprintf(os.Stderr, "qcdoc serve: selfcheck %s: status %d, want %q in body\n",
				path, resp.StatusCode, want)
			return false
		}
		return true
	}
	ok := scrape("/metrics", "qcdoc_fleet_runs_total") &&
		scrape("/metrics", "qcdoc_machine_gsum_rtt_ps") &&
		scrape("/fleet", `"digest"`) &&
		scrape("/trace", `"traceEvents"`)
	if !ok {
		return 1
	}
	fmt.Println("qcdoc serve: selfcheck scrape ok (/metrics /fleet /trace)")

	dark := fleet.Run(fleet.Config{Workers: workers, Pool: machine.NewPool()}, specs)
	bad := 0
	for i := range observed {
		if dark[i].Err != nil || dark[i].Digest != observed[i].Digest {
			bad++
			fmt.Fprintf(os.Stderr,
				"qcdoc serve: DIGEST PERTURBED by observability %q: observed %#x, dark %#x (err %v)\n",
				observed[i].Name, observed[i].Digest, dark[i].Digest, dark[i].Err)
		}
	}
	if bad > 0 {
		return 1
	}
	fmt.Printf("qcdoc serve: selfcheck passed — %d runs bit-identical with observability on and off\n",
		len(observed))
	return 0
}
