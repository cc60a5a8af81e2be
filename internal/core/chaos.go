package core

// The chaos/recovery driver: run a distributed Wilson CG solve under a
// deterministic fault plan and survive it end to end — inject, detect,
// isolate, restore, converge (DESIGN.md §12, experiment E16).
//
// Each attempt is one hosted job: boot a machine through the full
// qdaemon protocol, arm heartbeats and the watchdog, arm the fault
// plan, and launch the solve as a qdaemon application whose ranks
// periodically checkpoint their solution iterate to host storage over
// the NFS shim. When the watchdog detects a node death it isolates the
// owning daughterboard and aborts the job; the driver then plays the
// operator's part of §3.1 — the failed daughterboard leaves the
// partition, the qdaemon re-forms the largest power-of-two partition
// from the survivors, and the job restarts there from the newest
// complete checkpoint. The recovered partition is simulated as its own
// machine (we model the partition the job runs on, not the idle
// remainder), with a fresh simulation clock: fault offsets and
// detection latencies are attempt-relative, and every one of them is
// folded into the outcome digest.
//
// Host storage (the FS map) is the one thing that survives an attempt:
// exactly the paper's recovery story, where weeks-long runs live and
// die by the configurations on the host RAID (§4).

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"

	"qcdoc/internal/checkpoint"
	"qcdoc/internal/event"
	"qcdoc/internal/faultplan"
	"qcdoc/internal/fermion"
	"qcdoc/internal/geom"
	"qcdoc/internal/lattice"
	"qcdoc/internal/machine"
	"qcdoc/internal/node"
	"qcdoc/internal/qdaemon"
	"qcdoc/internal/qos"
	"qcdoc/internal/rng"
	"qcdoc/internal/solver"
	"qcdoc/internal/telemetry"
)

// ChaosConfig parameterizes a chaos run.
type ChaosConfig struct {
	// Shape is the initial machine; Global the lattice.
	Shape  geom.Shape
	Global lattice.Shape4
	// Seed draws the gauge configuration and source; FaultSeed the
	// fault plan.
	Seed      uint64
	FaultSeed uint64

	// Mass, Tol and MaxIter are the solve's parameters, taken as given.
	Mass    float64
	Tol     float64
	MaxIter int
	// CheckpointEvery is the solver-state checkpoint interval in CG
	// iterations.
	CheckpointEvery int
	// MaxAttempts bounds restarts (a plan can kill more than one node).
	MaxAttempts int

	// Spec describes the faults to draw from FaultSeed.
	Spec faultplan.Spec

	// Pool recycles engine storage and frame rings across attempts and
	// across runs (fleet substrate); nil disables pooling. Pooling never
	// changes the outcome digest.
	Pool *machine.Pool

	// Telemetry enables the full observability layer on every attempt's
	// machine and collects the merged histogram snapshots into the
	// outcome. The digest is invariant under this flag — that invariance
	// is the zero-perturbation gate (DESIGN.md §10).
	Telemetry bool

	// Log, when set, receives a human-readable narrative of the run.
	Log io.Writer
}

// withDefaults fills the recovery settings left zero. It never touches
// Mass, Tol or MaxIter: a zero tolerance or iteration limit must fail
// the parameter check, as a solve's does, and a zero mass is a mass.
func (c ChaosConfig) withDefaults() ChaosConfig {
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 10
	}
	if c.MaxAttempts == 0 {
		c.MaxAttempts = 4
	}
	return c
}

// CanonicalChaos is the reference chaos scenario (E16): an 8-node machine
// running a distributed Wilson solve on a 4^4 lattice while the fault
// plan kills a node mid-solve, drops and duplicates management packets
// during boot, and corrupts one link in a burst. Everything — victim,
// picosecond, detection, restart — derives from faultSeed; heartbeat and
// watchdog policy are the qdaemon's constants. `qcdoc fleet -faultseeds`,
// experiment E16 and the tests all start from this one value, which is
// what makes their digests comparable.
func CanonicalChaos(faultSeed uint64) ChaosConfig {
	return ChaosConfig{
		Shape:           geom.MakeShape(2, 2, 2),
		Global:          lattice.Shape4{4, 4, 4, 4},
		Seed:            4001,
		FaultSeed:       faultSeed,
		Mass:            0.5,
		Tol:             1e-8,
		MaxIter:         400,
		CheckpointEvery: 10,
		Spec: faultplan.Spec{
			From:        2 * event.Millisecond,
			To:          10 * event.Millisecond,
			NodeCrashes: 1,
			NetDrops:    2,
			NetDups:     1,
			LinkBursts:  1,
		},
	}
}

// Soak adds the compound second-order preset to a scenario: two
// checkpoint chunk corruptions, a torn write, a spurious death report
// and a second death inside the recovery window, with attempt headroom
// (6 unless already set) for the ladder to climb.
func (c ChaosConfig) Soak() ChaosConfig {
	if c.MaxAttempts == 0 {
		c.MaxAttempts = 6
	}
	c.Spec.ChunkCorrupts += 2
	c.Spec.ChunkTorns++
	c.Spec.WatchdogFalsePositives++
	c.Spec.RecoveryCrashes++
	return c
}

// ChaosAttempt is the observable outcome of one hosted job attempt.
type ChaosAttempt struct {
	Nodes        int
	RestoredIter int
	Iterations   int
	Aborted      bool
	Converged    bool
	Failure      qdaemon.FailureRecord
	EndedAt      event.Time
}

func (a ChaosAttempt) String() string {
	if a.Aborted {
		return fmt.Sprintf("%d nodes, restored iter %d: aborted (%s) at %v",
			a.Nodes, a.RestoredIter, a.Failure, a.EndedAt)
	}
	return fmt.Sprintf("%d nodes, restored iter %d: %d iterations, converged=%v at %v",
		a.Nodes, a.RestoredIter, a.Iterations, a.Converged, a.EndedAt)
}

// ChaosOutcome reports a chaos run.
type ChaosOutcome struct {
	Attempts    []ChaosAttempt
	Converged   bool
	RelResidual float64
	// SolutionCRC fingerprints the gathered solution field.
	SolutionCRC uint32
	// PlanDigest fingerprints the fault schedule; Digest the entire
	// run, recovery-event timing included. Two runs with the same seeds
	// must agree on both bit for bit.
	PlanDigest uint64
	Digest     uint64
	// Rungs is every recovery-ladder action the supervisor climbed —
	// chunk retries, generation fallbacks, cold starts, repartitions,
	// rejected death reports, mid-recovery re-detections — each with its
	// sim-time stamp, all folded into Digest.
	Rungs []RungRecord
	// Hists, when ChaosConfig.Telemetry was set, carries the machine
	// latency distributions merged over every attempt. Deliberately NOT
	// folded into Digest: the digest must be identical with telemetry
	// on or off.
	Hists map[string]telemetry.HistogramSnapshot
}

// attemptLayout remembers how an attempt spread the lattice over its
// machine, so the host can reassemble that attempt's checkpoints later.
type attemptLayout struct {
	shape geom.Shape
	lay   Layout
}

// chunkName is the host-storage path of one rank's solver-state chunk,
// its iteration zero-padded to six digits.
func chunkName(attempt, iter, rank int) string {
	b := strconv.AppendInt([]byte("ckpt/chaos/a"), int64(attempt), 10)
	b = append(b, "/i"...)
	for p := 100000; p > 1 && iter < p; p /= 10 {
		b = append(b, '0')
	}
	b = strconv.AppendInt(b, int64(iter), 10)
	return string(strconv.AppendInt(append(b, "/r"...), int64(rank), 10))
}

// parseChunk inverts chunkName; ok is false for any other name.
func parseChunk(name string) (attempt, iter, rank int, ok bool) {
	rest, ok1 := strings.CutPrefix(name, "ckpt/chaos/a")
	a, rest, ok2 := strings.Cut(rest, "/i")
	i, r, ok3 := strings.Cut(rest, "/r")
	if !ok1 || !ok2 || !ok3 {
		return 0, 0, 0, false
	}
	attempt, errA := strconv.Atoi(a)
	iter, errI := strconv.Atoi(i)
	rank, errR := strconv.Atoi(r)
	return attempt, iter, rank, errA == nil && errI == nil && errR == nil
}

// RunChaosWilson runs a distributed Wilson CG solve under the fault
// plan drawn from cfg.FaultSeed, recovering from detected node deaths
// by repartition + checkpoint restore until the solve converges or
// MaxAttempts is exhausted.
func RunChaosWilson(cfg ChaosConfig) (*ChaosOutcome, error) {
	cfg = cfg.withDefaults()
	logf := func(format string, args ...any) {
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, format+"\n", args...)
		}
	}

	gauge := lattice.NewGaugeField(cfg.Global)
	gauge.Randomize(cfg.Seed)
	b := lattice.NewFermionField(cfg.Global)
	b.Gaussian(cfg.Seed + 1)

	plan := faultplan.Generate(cfg.FaultSeed, cfg.Spec, cfg.Shape.Volume())
	out := &ChaosOutcome{PlanDigest: plan.Digest()}
	logf("%s", plan)

	// fs is the host RAID storage: the one artifact that survives an
	// attempt. Checkpoint chunks commit here all-or-nothing (the NFS
	// shim assembles a file only when every chunk arrived); the
	// supervisor owns it across attempts.
	fs := map[string][]byte{}
	sup := newSupervisor(fs, cfg.Global, logf)
	nodes := cfg.Shape.Volume()
	var past []attemptLayout
	// Every exit path — success or typed ladder exhaustion — reports the
	// rungs climbed and a digest over them: failing runs must be exactly
	// as reproducible as converging ones.
	finish := func(err error) (*ChaosOutcome, error) {
		out.Rungs = sup.rungs
		out.Digest = out.computeDigest()
		return out, err
	}
	for attempt := 0; attempt < cfg.MaxAttempts; attempt++ {
		shape := cfg.Shape
		if attempt > 0 {
			shape = machine.GuessShape(nodes)
		}
		lay, err := NewLayout(shape, cfg.Global)
		if err != nil {
			return finish(err)
		}
		logf("attempt %d: %d nodes %v", attempt, shape.Volume(), shape)

		att, err := runChaosAttempt(cfg, sup, attempt, shape, lay, plan, gauge, b, past, fs, logf)
		past = append(past, attemptLayout{shape: shape, lay: lay})
		if err != nil {
			return finish(err)
		}
		out.Attempts = append(out.Attempts, att.rec)
		out.Hists = telemetry.MergeHistogramMaps(out.Hists, att.hists)
		if att.rec.Aborted {
			nodes = att.healthyPow2
			sup.stats.Repartitions++
			sup.rung(attempt, RungRepartition, att.rec.Failure.Rank, nodes, att.rec.EndedAt)
			logf("attempt %d: %s", attempt, att.rec.Failure)
			if nodes < 1 {
				return finish(fmt.Errorf("%w after %s", ErrPartitionExhausted, att.rec.Failure))
			}
			continue
		}
		out.Converged = att.rec.Converged
		out.RelResidual = att.met.RelResidual
		out.SolutionCRC = checkpoint.FermionCRC(att.solution)
		break
	}
	if !out.Converged {
		return finish(fmt.Errorf("core: chaos run did not converge in %d attempts", len(out.Attempts)))
	}
	out.Rungs = sup.rungs
	out.Digest = out.computeDigest()
	logf("converged: residual %.2g, solution CRC %#x, digest %#x (%d ladder rungs)",
		out.RelResidual, out.SolutionCRC, out.Digest, len(out.Rungs))
	return out, nil
}

// chaosAttempt is the raw result of one attempt.
type chaosAttempt struct {
	rec         ChaosAttempt
	met         SolveMetrics
	solution    *lattice.FermionField
	healthyPow2 int
	hists       map[string]telemetry.HistogramSnapshot
}

func runChaosAttempt(cfg ChaosConfig, sup *supervisor, attempt int, shape geom.Shape, lay Layout,
	plan *faultplan.Plan, gauge *lattice.GaugeField, b *lattice.FermionField,
	past []attemptLayout, fs map[string][]byte, logf func(string, ...any)) (chaosAttempt, error) {

	res := chaosAttempt{}
	// rst carries the restore's product from the control process to the
	// node programs: the supervisor writes it (in sim time, before the
	// launch RPC) and each rank reads it once the launch reaches it.
	rst := struct {
		x0   *lattice.FermionField
		iter int
	}{x0: lattice.NewFermionField(cfg.Global)}
	// The same parameter check a session solve makes, before a machine
	// exists.
	pr := wilsonProblem(gauge, nil, b, cfg.Mass, fermion.Double, cfg.Tol, cfg.MaxIter)
	if err := pr.validate(lay.Dec); err != nil {
		return res, err
	}
	eng := cfg.Pool.NewEngine()
	mcfg := machine.DefaultConfig(shape)
	mcfg.Pool = cfg.Pool
	m := machine.Build(eng, mcfg)
	defer func() {
		eng.Shutdown()
		cfg.Pool.Reclaim(eng, m)
	}()
	if cfg.Telemetry {
		m.EnableTelemetry()
	}
	sup.beginAttempt(m.Reg)
	if err := m.TrainLinks(); err != nil {
		return res, err
	}
	d := qdaemon.New(eng, m)
	d.FS = fs

	pr.warmStart = func() *lattice.FermionField { return rst.x0 } // the restored iterate
	pr.checkpointer = func(ctx *node.Ctx, rank int) solver.Checkpoint[*lattice.FermionField] {
		k := qos.FromCtx(ctx)
		return solver.Checkpoint[*lattice.FermionField]{
			Every: cfg.CheckpointEvery,
			Save: func(iter int, cur *lattice.FermionField) {
				// Observability envelope: one flow + span per chunk so a
				// checkpoint stream exports as a Chrome-trace flow, and
				// the write's sim time lands in the CkptWrite histogram.
				peng := ctx.P.Engine()
				flow := peng.NewFlow()
				prev := peng.SetFlow(flow)
				peng.MarkSpanBegin("ckpt-chunk")
				start := ctx.P.Now()
				var buf bytes.Buffer
				if err := checkpoint.WriteSolverState(&buf, cur, uint32(rst.iter+iter)); err != nil {
					panic(err) // bytes.Buffer writes cannot fail
				}
				k.WriteFile(ctx.P, chunkName(attempt, rst.iter+iter, rank), buf.Bytes())
				peng.SetFlow(flow)
				peng.MarkSpanEnd("ckpt-chunk")
				peng.SetFlow(prev)
				if ctr := ctx.N.Counters(); ctr != nil {
					ctr.CkptWrite.Record(uint64(ctx.P.Now() - start))
				}
			},
		}
	}
	program, out := rankProgram(lay, pr, shape.Volume())
	res.solution = out.solution
	prog := fmt.Sprintf("chaos-wilson-a%d", attempt)
	d.LoadProgram(prog, program)

	var runErr error
	eng.Spawn("chaos control", func(p *event.Proc) {
		defer eng.Stop() // heartbeats and watchdog polls re-arm forever
		if err := d.BootAll(p); err != nil {
			runErr = err
			return
		}
		d.EnableHeartbeats()
		wd := d.StartWatchdog()
		wd.OnFailure = func(rec qdaemon.FailureRecord) { logf("attempt %d: watchdog: %s", attempt, rec) }
		wd.OnFalsePositive = func(rec qdaemon.FalsePositiveRecord) {
			logf("attempt %d: watchdog: rejected death report on live rank %d at %v", attempt, rec.Rank, rec.At)
		}
		plan.OnFire = func(f faultplan.Fault) { logf("attempt %d: inject %s (t=%v)", attempt, f, eng.Now()) }
		plan.Arm(eng, m, d.Net)
		plan.ArmHost(eng, len(m.Nodes), &chaosHost{fs: fs, wd: wd})
		// Restore on the sim clock: the control process pays RAID read
		// latency and retry backoff before the relaunch, so a fault
		// landing mid-recovery lands *during* these sleeps.
		x0, baseIter, rerr := sup.restore(p, attempt, past)
		if rerr != nil {
			runErr = rerr
			return
		}
		rst.x0, rst.iter = x0, baseIter
		logf("attempt %d: restored iteration %d at %v", attempt, baseIter, p.Now())
		if d.Aborted() != nil {
			// A second-order fault landed while the partition was still
			// re-forming: re-enter detection/isolation. The launch below
			// returns the pending abort without starting the job.
			rank := -1
			if n := len(wd.Failures); n > 0 {
				rank = wd.Failures[n-1].Rank
			}
			sup.stats.Redetects++
			sup.rung(attempt, RungRedetect, rank, 0, p.Now())
		}
		_, runErr = d.Run(p, fmt.Sprintf("chaos-a%d", attempt), prog)
	})
	if err := eng.RunAll(); err != nil {
		return res, err
	}
	if cfg.Telemetry {
		// Capture before the deferred teardown clears the registry.
		res.hists = m.Reg.Snapshot().Histograms
	}
	if wd := d.Watchdog(); wd != nil {
		for _, fp := range wd.FalsePositives {
			sup.rung(attempt, RungFalsePositive, fp.Rank, 0, fp.At)
		}
	}

	res.met.Iterations = out.res.Iterations
	res.met.RelResidual = out.res.RelResidual
	res.rec.Converged = out.res.Converged
	res.rec.Nodes = shape.Volume()
	res.rec.RestoredIter = rst.iter
	res.rec.Iterations = res.met.Iterations
	res.rec.EndedAt = eng.Now()
	var abort *qdaemon.AbortError
	switch {
	case errors.As(runErr, &abort):
		res.rec.Aborted = true
		res.rec.Converged = false
		res.rec.Failure = abort.Rec
		res.healthyPow2 = d.Part.LargestPow2Partition()
		return res, nil
	case runErr != nil:
		return res, runErr
	}
	if err := firstOf(out.errs); err != nil {
		return res, err
	}
	res.met.SimTime = res.rec.EndedAt
	return res, nil
}

// iterationsOf lists, ascending, the iterations attempt a checkpointed
// (by rank-0 chunk presence).
func iterationsOf(fs map[string][]byte, a int) []int {
	var iters []int
	for name := range fs {
		if at, iter, rank, ok := parseChunk(name); ok && at == a && rank == 0 {
			iters = append(iters, iter)
		}
	}
	slices.Sort(iters)
	return iters
}

// computeDigest folds the whole run — attempt structure, failure
// records with their detection timing, every recovery-ladder rung,
// final numerics — into one FNV-1a fingerprint. This is the chaos
// determinism currency: two runs with the same -faultseed must agree
// here exactly.
func (o *ChaosOutcome) computeDigest() uint64 {
	h := rng.NewFold()
	b := func(v bool) uint64 {
		if v {
			return 1
		}
		return 0
	}
	h.Mix(o.PlanDigest)
	for _, a := range o.Attempts {
		h.Mix(uint64(a.Nodes))
		h.Mix(uint64(a.RestoredIter))
		h.Mix(uint64(a.Iterations))
		h.Mix(b(a.Aborted))
		h.Mix(b(a.Converged))
		h.Mix(uint64(a.Failure.Rank))
		h.Mix(uint64(a.Failure.Board))
		h.Mix(b(a.Failure.Crashed))
		h.Mix(uint64(a.Failure.DetectedAt))
		h.Mix(uint64(a.Failure.DetectLatency))
		h.Mix(uint64(a.EndedAt))
	}
	h.Mix(uint64(len(o.Rungs)))
	for _, r := range o.Rungs {
		h.Mix(uint64(r.Attempt))
		h.Mix(uint64(r.Kind))
		h.Mix(uint64(int64(r.Rank)))
		h.Mix(uint64(r.Gen))
		h.Mix(uint64(r.At))
	}
	h.Mix(b(o.Converged))
	h.Mix(math.Float64bits(o.RelResidual))
	h.Mix(uint64(o.SolutionCRC))
	return uint64(h)
}
