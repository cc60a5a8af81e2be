package main

import (
	"fmt"
	"math"

	"qcdoc/internal/core"
	"qcdoc/internal/fermion"
	"qcdoc/internal/geom"
	"qcdoc/internal/latmath"
	"qcdoc/internal/lattice"
	"qcdoc/internal/telemetry"
)

// fnv is the FNV-1a fold the simulator's own digests use.
type fnv uint64

func newFNV() fnv { return 14695981039346656037 }

func (h *fnv) mix(v uint64) {
	for i := 0; i < 8; i++ {
		*h ^= fnv(v & 0xFF)
		*h *= 1099511628211
		v >>= 8
	}
}

func hashSpinors(s []latmath.Spinor) uint64 {
	h := newFNV()
	for i := range s {
		for _, v := range s[i] {
			h.mixVec3(v)
		}
	}
	return uint64(h)
}

func (h *fnv) mixVec3(v latmath.Vec3) {
	for _, z := range v {
		h.mix(math.Float64bits(real(z)))
		h.mix(math.Float64bits(imag(z)))
	}
}

// digestMatch is core.sim_digest_match: 0 only when a digest is pinned
// (default seed, real size) and the operation's differs from it.
func digestMatch(pinned, digest uint64) float64 {
	if pinned != 0 && digest != pinned {
		return 0
	}
	return 1
}

// field is what the host-side check needs of a lattice field type.
type field[T any] interface {
	AXPY(a complex128, x T)
	Norm2() float64
}

// relResidual returns |Dx-b|/|b| with the reference operator applied on
// the host; scratch is overwritten.
func relResidual[T field[T]](apply func(dst, src T), scratch, x, b T) float64 {
	apply(scratch, x)
	scratch.AXPY(-1, b)
	return math.Sqrt(scratch.Norm2() / b.Norm2())
}

// stage is one distributed solve of a solve workload's operation.
type stage struct {
	name  string
	tol   float64
	paper float64 // the paper's % of peak for this operator, 0 if it gives none
	sites int     // global sites one operator application touches
	// solve runs the distributed solve and returns a function that
	// recomputes the true residual on the host and fingerprints the
	// solution.
	solve func(*core.Session) (core.SolveMetrics, func() (resid float64, hash uint64), error)
}

// solveInstance is a solve workload with its fields generated: each
// stage runs in a fresh Session on a serial engine.
type solveInstance struct {
	workload string
	shape    geom.Shape
	global   lattice.Shape4
	stages   []stage
	pinned   uint64 // the operation's digest at the default seed, 0 if not pinned
}

const maxIter = 100

func wilsonStage(gauge *lattice.GaugeField, seed uint64, paper float64) stage {
	const mass, tol = 0.5, 1e-4
	rhs := lattice.NewFermionField(gauge.L)
	rhs.Gaussian(seed + 1)
	ref := fermion.NewWilson(gauge, mass)
	return stage{name: "wilson", tol: tol, paper: paper, sites: gauge.L.Volume(),
		solve: func(s *core.Session) (core.SolveMetrics, func() (float64, uint64), error) {
			x, met, err := s.SolveWilson(gauge, rhs, mass, fermion.Double, tol, maxIter)
			return met, func() (float64, uint64) {
				return relResidual(ref.Apply, lattice.NewFermionField(gauge.L), x, rhs), hashSpinors(x.S)
			}, err
		}}
}

func cloverStage(gauge *lattice.GaugeField, seed uint64) stage {
	const tol = 1e-4
	rhs := lattice.NewFermionField(gauge.L)
	rhs.Gaussian(seed + 1)
	ref := fermion.NewClover(gauge, 0.5, 1.0)
	return stage{name: "clover", tol: tol, paper: 46.5, sites: gauge.L.Volume(),
		solve: func(s *core.Session) (core.SolveMetrics, func() (float64, uint64), error) {
			x, met, err := s.SolveClover(ref, rhs, fermion.Double, tol, maxIter)
			return met, func() (float64, uint64) {
				return relResidual(ref.Apply, lattice.NewFermionField(gauge.L), x, rhs), hashSpinors(x.S)
			}, err
		}}
}

func asqtadStage(gauge *lattice.GaugeField, seed uint64) stage {
	const tol = 1e-4
	rhs := lattice.NewColorField(gauge.L)
	rhs.Gaussian(seed + 1)
	ref := fermion.NewASQTAD(gauge, 0.5)
	return stage{name: "asqtad", tol: tol, paper: 38, sites: gauge.L.Volume(),
		solve: func(s *core.Session) (core.SolveMetrics, func() (float64, uint64), error) {
			x, met, err := s.SolveASQTAD(ref, rhs, fermion.Double, tol, maxIter)
			return met, func() (float64, uint64) {
				h := newFNV()
				for _, v := range x.V {
					h.mixVec3(v)
				}
				return relResidual(ref.Apply, lattice.NewColorField(gauge.L), x, rhs), uint64(h)
			}, err
		}}
}

func dwfStage(gauge *lattice.GaugeField, seed uint64) stage {
	const m5, mf, ls, tol = 1.8, 0.5, 4, 1e-2
	rhs := fermion.NewField5(gauge.L, ls)
	rhs.Gaussian(seed + 1)
	ref := fermion.NewDWF(gauge, m5, mf, ls)
	return stage{name: "dwf", tol: tol, sites: ls * gauge.L.Volume(),
		solve: func(s *core.Session) (core.SolveMetrics, func() (float64, uint64), error) {
			x, met, err := s.SolveDWF(gauge, rhs, m5, mf, ls, fermion.Double, tol, maxIter)
			return met, func() (float64, uint64) {
				return relResidual(ref.Apply, fermion.NewField5(gauge.L, ls), x, rhs), hashSpinors(x.S)
			}, err
		}}
}

// setupSolve builds a solve workload's inputs: gauge field from seed,
// sources from seed+1, reference operators for the host-side check.
func setupSolve(workload string, shape geom.Shape, global lattice.Shape4, seed uint64, pinned uint64,
	stages func(*lattice.GaugeField, uint64) []stage) (instance, error) {
	if _, err := core.NewLayout(shape, global); err != nil {
		return nil, err
	}
	gauge := lattice.NewGaugeField(global)
	gauge.Randomize(seed)
	if seed != defaultSeed {
		pinned = 0
	}
	return &solveInstance{workload: workload, shape: shape, global: global, stages: stages(gauge, seed), pinned: pinned}, nil
}

func (in *solveInstance) op(tr *tracer) (opOut, error) {
	out := opOut{}
	if tr != nil {
		out.layer = map[string]float64{}
	}
	digest := newFNV()
	pct := map[string]float64{}
	var iters, apps int
	var gsum telemetry.HistogramSnapshot
	tr.begin("bench", in.workload)
	defer tr.end()
	for _, st := range in.stages {
		tr.begin("core", "session_build")
		sess, err := core.NewSession(in.shape, in.global)
		build := tr.end()
		if err != nil {
			return out, err
		}
		if tr != nil {
			sess.M.EnableTelemetry()
		}
		events0 := sess.Eng.Executed()
		tr.begin("core", "solve_"+st.name)
		met, verify, err := st.solve(sess)
		solve := tr.end()
		if err != nil {
			sess.Close()
			return out, fmt.Errorf("%s: %w", st.name, err)
		}
		if tr != nil {
			out.layer["event.events"] += float64(sess.Eng.Executed() - events0)
			out.layer["_host_site_apps."+st.name] += float64(met.Applications) * float64(st.sites)
			machineCounters(out.layer, sess.M, &gsum)
		}
		tr.begin("fermion", "verify_"+st.name)
		resid, hash := verify()
		ver := tr.end()
		tr.begin("core", "close")
		sess.Close()
		cl := tr.end()
		if tr != nil {
			out.layer["core.session_build_s"] += build
			out.layer["core.solve_s"] += solve
			out.layer["core.verify_s"] += ver
			out.layer["core.close_s"] += cl
			if len(in.stages) > 1 {
				out.layer["core."+st.name+"_s"] = build + solve + ver + cl
				out.layer["core."+st.name+"_pct_peak"] = 100 * met.Efficiency
			} else {
				out.layer["core.pct_peak"] = 100 * met.Efficiency
			}
		}
		if !(resid <= 2*st.tol) {
			return out, fmt.Errorf("%s: host-recomputed |Dx-b|/|b| = %.3g exceeds 2 x tol %.0e", st.name, resid, st.tol)
		}
		for _, v := range []uint64{uint64(met.Iterations), uint64(met.Applications), math.Float64bits(met.RelResidual),
			hash, uint64(met.SimTime), met.WordsSent, met.Resends} {
			digest.mix(v)
		}
		pct[st.name] = 100 * met.Efficiency
		iters += met.Iterations
		apps += met.Applications
		out.simS += met.SimTime.Seconds()
	}
	out.digest = uint64(digest)
	if d, c := pct["dwf"], pct["clover"]; c > 0 && d <= c {
		return out, fmt.Errorf("dwf %.2f %% of peak does not exceed clover %.2f %% (paper: DWF will surpass clover)", d, c)
	}
	if tr != nil {
		paperErr := 0.0
		for _, st := range in.stages {
			if st.paper > 0 {
				paperErr = max(paperErr, 100*math.Abs(pct[st.name]-st.paper)/st.paper)
			}
		}
		out.layer["core.paper_err_pct"] = paperErr
		out.layer["core.sim_s"] = out.simS
		out.layer["core.sim_ns_per_iter"] = 1e9 * out.simS / float64(iters)
		out.layer["solver.iterations"] = float64(iters)
		out.layer["fermion.applications"] = float64(apps)
		out.layer["core.sim_digest_match"] = digestMatch(in.pinned, out.digest)
		out.layer["event.ns_per_event"] = 1e9 * out.layer["core.solve_s"] / out.layer["event.events"]
		finishCounters(out.layer, &gsum)
	}
	return out, nil
}

func (in *solveInstance) extras(float64, uint64, map[string]float64) error { return nil }
