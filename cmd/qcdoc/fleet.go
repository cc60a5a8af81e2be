package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"qcdoc/internal/core"
	"qcdoc/internal/fermion"
	"qcdoc/internal/fleet"
	"qcdoc/internal/lattice"
	"qcdoc/internal/machine"
)

// cmdFleet runs a campaign: a sweep of (lattice × operator × fault
// seed) where every run gets its own fully independent simulated
// machine and the campaign is scheduled over a bounded worker pool —
// the fleet substrate of DESIGN.md §14. With -verify the campaign runs
// twice, serially and concurrently, and every run's outcome digest
// must match bit for bit; a mismatch exits 1. -storm layers the
// compound second-order fault preset (checkpoint corruption, torn
// writes, false death reports, faults during recovery) onto every run;
// runs that exhaust the recovery ladder with a typed error are counted
// as survived-by-design, not failures.
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
	simWorkers := fs.Int("simworkers", 0, "worker goroutines inside each machine's sharded engine (0 = serial engine per machine)")
	verify := fs.Bool("verify", false, "run the campaign serially too and require identical per-run digests")
	quiet := fs.Bool("quiet", false, "suppress per-run lines; print only the summary")
	fs.Parse(args)

	base := fleet.Spec{
		Machine: parseMachine(*mshape),
		Mass:    *mass,
		Tol:     *tol,
		MaxIter: *maxIter,
		Ls:      *ls,
		Seed:    *seed,
	}
	if *simWorkers > 0 {
		base.Shards = machine.ShardAuto
		base.Workers = *simWorkers
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
		// The canonical scenario (`qcdoc chaos`, `-soak` under -storm), so
		// fleet digests equal standalone runs of the same seeds.
		c := core.CanonicalChaos(0)
		if *storm {
			c = c.Soak()
		}
		base.Seed = c.Seed
		base.Tol = c.Tol
		base.MaxIter = c.MaxIter
		base.CheckpointEvery = c.CheckpointEvery
		base.MaxAttempts = c.MaxAttempts
		base.Chaos = true
		base.Faults = c.Spec
	}

	var lattices []lattice.Shape4
	for _, l := range strings.Split(*lats, ";") {
		lattices = append(lattices, parseShape4(strings.TrimSpace(l)))
	}
	var opKinds []fermion.OpKind
	for _, o := range strings.Split(*ops, ",") {
		opKinds = append(opKinds, opKind(strings.TrimSpace(o)))
	}
	specs := fleet.Sweep(base, lattices, opKinds, seeds)

	cfg := fleet.Config{Workers: *workers, Pool: machine.NewPool()}
	if !*quiet {
		cfg.Log = os.Stdout
	}
	fmt.Printf("fleet: %d runs (machine %v), %d campaign workers\n",
		len(specs), base.Machine, *workers)
	start := time.Now()
	results := fleet.Run(cfg, specs)
	wall := time.Since(start)

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
			if !*quiet {
				fmt.Printf("fleet: ladder exhausted %q: %v\n", r.Name, r.Err)
			}
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
	fmt.Printf("fleet: pool recycled %d engine storages, %d frame rings; %d shard-plan hits\n",
		st.StorageReused, st.RingsReused, st.PlanHits)
	if failed > 0 {
		os.Exit(1)
	}

	if *verify {
		serial := fleet.Run(fleet.Config{Workers: 1, Pool: machine.NewPool()}, specs)
		bad := 0
		for i := range results {
			if (serial[i].Err != nil && !laddered(serial[i].Err)) || serial[i].Digest != results[i].Digest {
				bad++
				fmt.Fprintf(os.Stderr, "qcdoc fleet: DIGEST MISMATCH %q: concurrent %#x, serial %#x (err %v)\n",
					results[i].Name, results[i].Digest, serial[i].Digest, serial[i].Err)
			}
		}
		if bad > 0 {
			os.Exit(1)
		}
		fmt.Printf("fleet: verify passed — %d serial re-runs, every digest identical\n", len(serial))
	}
}
