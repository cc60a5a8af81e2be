// Package fleet runs campaigns: many fully independent simulated
// machines in one process, each executing one run of a parameter sweep
// (lattice size × operator × fault seed), scheduled over a bounded
// worker pool. The substrate contract (DESIGN.md §14) is that a run
// produces the same outcome digest it would produce alone in a fresh
// process — machines share only immutable data (cost tables) and
// reference-free recycled storage (frame rings, event-heap arrays),
// never mutable state. The real QCDOC host served a whole
// physics community this way: many partitions, many jobs, one machine
// room (paper §3).
package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sync"

	"qcdoc/internal/checkpoint"
	"qcdoc/internal/core"
	"qcdoc/internal/event"
	"qcdoc/internal/faultplan"
	"qcdoc/internal/fermion"
	"qcdoc/internal/geom"
	"qcdoc/internal/lattice"
	"qcdoc/internal/machine"
	"qcdoc/internal/rng"
	"qcdoc/internal/telemetry"
)

// Spec describes one run of a campaign: a machine, a problem, and —
// for chaos runs — a fault plan seed. The zero value is not runnable;
// start from a base spec and Sweep, or fill it explicitly.
type Spec struct {
	// Name labels the run in output; Sweep derives it from the swept
	// parameters.
	Name string

	// Machine is the six-dimensional torus; Global the lattice laid over
	// it.
	Machine geom.Shape
	Global  lattice.Shape4

	// Op selects the fermion operator. Chaos runs are Wilson only (the
	// zero value) — they exercise the recovery pipeline, which is
	// operator-independent — and any other Op fails with ErrChaosOp.
	Op fermion.OpKind

	Mass    float64
	Tol     float64
	MaxIter int
	// Ls is the fifth dimension (DWF only).
	Ls int

	// Seed draws the gauge configuration and source.
	Seed uint64

	// Chaos switches the run from a plain solve to the full
	// inject/detect/isolate/restore pipeline of core.RunChaosWilson,
	// with faults drawn from FaultSeed according to Faults.
	Chaos           bool
	FaultSeed       uint64
	Faults          faultplan.Spec
	CheckpointEvery int
	// MaxAttempts bounds chaos restarts (0 = the chaos default); storm
	// campaigns raise it so compound plans have ladder headroom.
	MaxAttempts int
}

// Result is the outcome of one run. Digest is the determinism
// currency: for a chaos run it is core.ChaosOutcome.Digest, for a
// solve run an FNV-1a fold of the converged numerics; either way it
// must be bit-identical to the digest the same spec produces in a
// fresh single-machine process.
type Result struct {
	Name       string
	Iterations int
	Attempts   int
	Converged  bool
	// RelResidual is the solution's true relative residual |Dx−b|/|b|,
	// the number a run line prints. CGNE stops on the normal-equation
	// residual |D†r|/|D†b| ≤ Tol, so RelResidual need not be below Tol.
	RelResidual float64
	SolutionCRC uint32
	SimTime     event.Time
	Digest      uint64
	Err         error
	// Metrics is the distributed solve's own account (solve runs only).
	Metrics core.SolveMetrics

	// Observability sidecar, populated only under Config.Observe and
	// never folded into Digest (the digest must be invariant under
	// observation — DESIGN.md §10). Hists carries the run's machine-wide
	// latency distributions; Snap the full telemetry snapshot (solve
	// runs only — chaos attempts tear their machines down, so only their
	// merged histograms survive); Trace the run's flight recorder,
	// pid-namespaced by spec index for merged export.
	Hists map[string]telemetry.HistogramSnapshot
	Snap  telemetry.Snapshot
	Trace *event.Recorder
}

func (r Result) String() string {
	if r.Err != nil {
		// A failed chaos run still has a digest, and -verify compares it.
		return fmt.Sprintf("%-32s ERROR: %v  digest %#x", r.Name, r.Err, r.Digest)
	}
	s := fmt.Sprintf("%-32s %4d iter", r.Name, r.Iterations)
	if r.Attempts > 1 {
		s += fmt.Sprintf(" (%d attempts)", r.Attempts)
	}
	s += fmt.Sprintf("  residual %.2g  sim %v", r.RelResidual, r.SimTime)
	if r.Metrics.Efficiency > 0 {
		s += fmt.Sprintf("  %.1f%% of peak", 100*r.Metrics.Efficiency)
	}
	return s + fmt.Sprintf("  digest %#x", r.Digest)
}

// Config parameterizes a campaign.
type Config struct {
	// Workers bounds how many runs execute concurrently (0 = serial).
	// Per-run digests are invariant under Workers — that is the fleet
	// substrate's acceptance test.
	Workers int
	// Pool recycles engine storage and frame rings across the fleet's
	// machine builds; nil disables pooling.
	Pool *machine.Pool
	// Log, when set, receives one line per completed run, preceded by a
	// chaos run's narrative (core.ChaosConfig.Log), which is buffered so
	// that no two runs interleave. Runs appear in completion order; the
	// returned slice is always in spec order.
	Log io.Writer

	// Observe enables the full telemetry layer on every run's machine
	// and collects per-run histogram snapshots into Result.Hists. It
	// also attaches an event.DefaultRecorderSize flight recorder to each
	// solve run's engine (pid = spec index), collected into
	// Result.Trace; a panic in a traced run dumps the recorder's last 64
	// events to stderr before it propagates. Chaos runs get no recorder
	// (their machines are rebuilt per attempt). Per-run digests are
	// invariant under Observe.
	Observe bool
	// OnResult, when set, observes each completed run as it finishes —
	// the live-campaign feed behind `qcdoc fleet -addr`'s /fleet
	// endpoint. It is called from campaign worker goroutines (completion
	// order, not spec order) and must be safe for concurrent use.
	OnResult func(i int, r Result)
}

// Run executes every spec and returns results in spec order. Each run
// is fully independent: its own engine, machine, RNG streams, and
// telemetry — failure or chaos in one run cannot be observed by
// another.
func Run(cfg Config, specs []Spec) []Result {
	results := make([]Result, len(specs))
	workers := cfg.Workers
	if workers <= 0 {
		workers = 1
	}
	if workers > len(specs) {
		workers = len(specs)
	}
	var logMu sync.Mutex
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var narrative *bytes.Buffer
			if cfg.Log != nil {
				narrative = new(bytes.Buffer)
			}
			for i := range idx {
				results[i] = runOne(specs[i], cfg, i, narrative)
				if cfg.Log != nil {
					logMu.Lock()
					narrative.WriteTo(cfg.Log)
					fmt.Fprintln(cfg.Log, results[i])
					logMu.Unlock()
				}
				if cfg.OnResult != nil {
					cfg.OnResult(i, results[i])
				}
			}
		}()
	}
	for i := range specs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results
}

// Sweep expands a base spec over the cross product of lattices,
// operators, and fault seeds (the campaign the ROADMAP asks for). Any
// nil/empty axis keeps the base value as the single point. Fault seeds
// only apply when base.Chaos is set; for solve sweeps pass nil.
func Sweep(base Spec, lattices []lattice.Shape4, ops []fermion.OpKind, faultSeeds []uint64) []Spec {
	if len(lattices) == 0 {
		lattices = []lattice.Shape4{base.Global}
	}
	if len(ops) == 0 {
		ops = []fermion.OpKind{base.Op}
	}
	if len(faultSeeds) == 0 || !base.Chaos {
		faultSeeds = []uint64{base.FaultSeed}
	}
	var specs []Spec
	for _, lat := range lattices {
		for _, op := range ops {
			for _, fseed := range faultSeeds {
				s := base
				s.Global = lat
				s.Op = op
				s.FaultSeed = fseed
				s.Name = specName(s)
				specs = append(specs, s)
			}
		}
	}
	return specs
}

func specName(s Spec) string {
	name := fmt.Sprintf("%s %dx%dx%dx%d", s.Op, s.Global[0], s.Global[1], s.Global[2], s.Global[3])
	if s.Chaos {
		name += fmt.Sprintf(" fseed=%d", s.FaultSeed)
	}
	return name
}

// Digest folds every run's outcome into one campaign fingerprint
// (FNV-1a): the one number a serial and a concurrent execution of the
// same campaign must agree on.
func Digest(rs []Result) uint64 {
	h := rng.NewFold()
	for _, r := range rs {
		h.Mix(r.Digest)
		if r.Err != nil {
			h.Mix(1)
		}
	}
	return uint64(h)
}

// ErrChaosOp: a chaos spec asks for an operator other than Wilson.
var ErrChaosOp = errors.New("fleet: chaos runs are Wilson only")

// runOne executes a single spec on its own machine. The spec index i
// only namespaces observability output (trace pids), and narrative, when
// non-nil, receives a chaos run's narrative; neither reaches the
// simulation.
func runOne(s Spec, cfg Config, i int, narrative *bytes.Buffer) Result {
	if !s.Chaos {
		return runSolve(s, cfg, i)
	}
	if s.Op != fermion.WilsonKind {
		return Result{Name: s.Name, Err: fmt.Errorf("%w, got %v", ErrChaosOp, s.Op)}
	}
	return runChaos(s, cfg, narrative)
}

func runChaos(s Spec, cfg Config, narrative *bytes.Buffer) Result {
	ccfg := core.ChaosConfig{
		Shape:           s.Machine,
		Global:          s.Global,
		Seed:            s.Seed,
		FaultSeed:       s.FaultSeed,
		Mass:            s.Mass,
		Tol:             s.Tol,
		MaxIter:         s.MaxIter,
		CheckpointEvery: s.CheckpointEvery,
		MaxAttempts:     s.MaxAttempts,
		Spec:            s.Faults,
		Pool:            cfg.Pool,
		Telemetry:       cfg.Observe,
	}
	if narrative != nil {
		ccfg.Log = narrative
	}
	out, err := core.RunChaosWilson(ccfg)
	res := Result{Name: s.Name, Err: err}
	if out != nil {
		res.Attempts = len(out.Attempts)
		if n := len(out.Attempts); n > 0 {
			res.Iterations = out.Attempts[n-1].Iterations
			res.SimTime = out.Attempts[n-1].EndedAt
		}
		res.Converged = out.Converged
		res.RelResidual = out.RelResidual
		res.SolutionCRC = out.SolutionCRC
		res.Digest = out.Digest
		res.Hists = out.Hists
	}
	return res
}

func runSolve(s Spec, cfg Config, i int) Result {
	res := Result{Name: s.Name}
	mcfg := machine.DefaultConfig(s.Machine)
	mcfg.Pool = cfg.Pool
	sess, err := core.NewSessionConfig(mcfg, s.Global)
	if err != nil {
		res.Err = err
		return res
	}
	defer sess.Close()
	if cfg.Observe {
		sess.M.EnableTelemetry()
		rec := event.NewRecorder(event.DefaultRecorderSize)
		rec.SetMachineID(i)
		sess.Eng.SetRecorder(rec)
		res.Trace = rec
		defer func() {
			if r := recover(); r != nil {
				rec.Dump(os.Stderr, 64)
				panic(r)
			}
		}()
	}

	gauge := lattice.NewGaugeField(s.Global)
	gauge.Randomize(s.Seed)
	var met core.SolveMetrics
	var crc uint32
	switch s.Op {
	case fermion.CloverKind:
		ref := fermion.NewClover(gauge, s.Mass, 1.0)
		b := lattice.NewFermionField(s.Global)
		b.Gaussian(s.Seed + 1)
		var x *lattice.FermionField
		x, met, err = sess.SolveClover(ref, b, fermion.Double, s.Tol, s.MaxIter)
		if x != nil {
			crc = checkpoint.FermionCRC(x)
		}
	case fermion.AsqtadKind:
		ref := fermion.NewASQTAD(gauge, s.Mass)
		b := lattice.NewColorField(s.Global)
		b.Gaussian(s.Seed + 1)
		_, met, err = sess.SolveASQTAD(ref, b, fermion.Double, s.Tol, s.MaxIter)
	case fermion.DWFKind:
		if s.Ls < 1 {
			err = fmt.Errorf("%w: Ls %d", core.ErrSolveParams, s.Ls)
			break
		}
		b := fermion.NewField5(s.Global, s.Ls)
		b.Gaussian(s.Seed + 1)
		_, met, err = sess.SolveDWF(gauge, b, 1.8, s.Mass, s.Ls, fermion.Double, s.Tol, s.MaxIter)
	default: // Wilson
		b := lattice.NewFermionField(s.Global)
		b.Gaussian(s.Seed + 1)
		var x *lattice.FermionField
		x, met, err = sess.SolveWilson(gauge, b, s.Mass, fermion.Double, s.Tol, s.MaxIter)
		if x != nil {
			crc = checkpoint.FermionCRC(x)
		}
	}
	if err == nil {
		_, err = sess.M.VerifyChecksums()
	}
	if err != nil {
		res.Err = err
		return res
	}
	if cfg.Observe {
		// Snapshot before the deferred Close clears the registry.
		res.Snap = sess.M.Reg.Snapshot()
		res.Hists = res.Snap.Histograms
	}
	res.Iterations = met.Iterations
	res.Attempts = 1
	res.Converged = true
	res.RelResidual = met.RelResidual
	res.SolutionCRC = crc
	res.SimTime = met.SimTime
	res.Metrics = met
	res.Digest = solveDigest(met, crc)
	return res
}

// Aggregate folds every run's latency distributions into one
// campaign-wide map: per-histogram merge of counts, sums, maxima and
// bucket contents, with percentiles recomputed from the merged
// buckets. Purely a read over Result sidecars.
func Aggregate(rs []Result) map[string]telemetry.HistogramSnapshot {
	var agg map[string]telemetry.HistogramSnapshot
	for _, r := range rs {
		agg = telemetry.MergeHistogramMaps(agg, r.Hists)
	}
	return agg
}

// solveDigest fingerprints a solve run's observable outcome: iteration
// count, residual bits, solution CRC, and the simulated wall time of
// the solve (which folds in every network and kernel timing decision).
func solveDigest(met core.SolveMetrics, crc uint32) uint64 {
	h := rng.NewFold()
	h.Mix(uint64(met.Iterations))
	h.Mix(uint64(met.Applications))
	h.Mix(math.Float64bits(met.RelResidual))
	h.Mix(uint64(crc))
	h.Mix(uint64(met.SimTime))
	h.Mix(met.WordsSent)
	h.Mix(met.Resends)
	return uint64(h)
}
