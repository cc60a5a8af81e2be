package core

import (
	"errors"
	"fmt"
	"math"

	"qcdoc/internal/event"
	"qcdoc/internal/fermion"
	"qcdoc/internal/lattice"
	"qcdoc/internal/node"
	"qcdoc/internal/ppc440"
	"qcdoc/internal/qmp"
	"qcdoc/internal/solver"
	"qcdoc/internal/team"
)

// Errors a solve returns before anything is launched on the machine.
var (
	// ErrShape: the gauge field, the source or its Ls does not have the
	// session's global lattice shape.
	ErrShape = errors.New("core: field shape does not match the layout")
	// ErrLocalExtent: a distributed direction's local extent is below the
	// operator's hop reach (ASQTAD's Naik term needs three sites).
	ErrLocalExtent = errors.New("core: local extent below the operator's hop reach")
	// ErrSolveParams: the tolerance is not positive, the iteration limit
	// or Ls is below one, or a mass parameter is not finite.
	ErrSolveParams = errors.New("core: solver parameters out of range")
)

// distOperator is a Dirac operator on one node's sub-lattice.
type distOperator[F any] interface {
	Apply(dst, src F)
	ApplyDag(dst, src F)
}

// problem is one distributed linear system D x = b: everything the
// shared rank program needs to know about the operator and its field
// type F.
type problem[F solver.Field[F]] struct {
	kind    fermion.OpKind
	prec    fermion.Precision
	ls      int // slices per 4-D site: Ls for domain-wall fields, else 1
	reach   int // hop reach: the least local extent a distributed direction may have
	tol     float64
	maxIter int
	mass    float64 // the quark mass (mf for domain-wall fields)
	m5      float64 // the domain-wall height; 0 for the 4-D operators

	b            F
	gaugeL, bL   lattice.Shape4 // global shapes of the configuration and of b
	bLs          int
	newField     func(lattice.Shape4) F
	scatter      func(global F, dec lattice.Decomp, gc lattice.Site) F
	gather       func(global F, dec lattice.Decomp, gc lattice.Site, local F)
	newOperator  func(ctx *node.Ctx, comm *qmp.Comm, tm *team.Team, geo *geometry) distOperator[F]
	warmStart    func() F                                           // global initial iterate, read at launch; nil starts from zero
	checkpointer func(ctx *node.Ctx, rank int) solver.Checkpoint[F] // nil disables capture
}

func wilsonProblem(gauge *lattice.GaugeField, clover *fermion.Clover, b *lattice.FermionField, mass float64, prec fermion.Precision, tol float64, maxIter int) problem[*lattice.FermionField] {
	kind := fermion.WilsonKind
	if clover != nil {
		kind = fermion.CloverKind
	}
	return problem[*lattice.FermionField]{
		kind: kind, prec: prec, ls: 1, reach: 1, tol: tol, maxIter: maxIter, mass: mass,
		b: b, gaugeL: gauge.L, bL: b.L, bLs: 1,
		newField: lattice.NewFermionField, scatter: ScatterFermion, gather: GatherFermion,
		newOperator: func(ctx *node.Ctx, comm *qmp.Comm, tm *team.Team, geo *geometry) distOperator[*lattice.FermionField] {
			return newDistWilson(ctx, comm, tm, geo, gauge, clover, mass, prec)
		},
	}
}

func asqtadProblem(ref *fermion.ASQTAD, b *lattice.ColorField, prec fermion.Precision, tol float64, maxIter int) problem[*lattice.ColorField] {
	return problem[*lattice.ColorField]{
		kind: fermion.AsqtadKind, prec: prec, ls: 1, reach: naikReach, tol: tol, maxIter: maxIter, mass: ref.Mass,
		b: b, gaugeL: ref.G.L, bL: b.L, bLs: 1,
		newField: lattice.NewColorField, scatter: ScatterColor, gather: GatherColor,
		newOperator: func(ctx *node.Ctx, comm *qmp.Comm, tm *team.Team, geo *geometry) distOperator[*lattice.ColorField] {
			return newDistASQTAD(ctx, comm, tm, geo, ref, prec)
		},
	}
}

func dwfProblem(gauge *lattice.GaugeField, b *fermion.Field5, m5, mf float64, ls int, prec fermion.Precision, tol float64, maxIter int) problem[*fermion.Field5] {
	newField := func(l lattice.Shape4) *fermion.Field5 { return fermion.NewField5(l, ls) }
	return problem[*fermion.Field5]{
		kind: fermion.DWFKind, prec: prec, ls: ls, reach: 1, tol: tol, maxIter: maxIter, mass: mf, m5: m5,
		b: b, gaugeL: gauge.L, bL: b.L, bLs: b.Ls,
		newField: newField,
		scatter: func(global *fermion.Field5, dec lattice.Decomp, gc lattice.Site) *fermion.Field5 {
			local := newField(dec.Local)
			vl, vg := dec.LocalVolume(), dec.Global.Volume()
			forEachSite(dec, gc, func(l, g int) {
				for s := 0; s < ls; s++ {
					local.S[s*vl+l] = global.S[s*vg+g]
				}
			})
			return local
		},
		gather: func(global *fermion.Field5, dec lattice.Decomp, gc lattice.Site, local *fermion.Field5) {
			vl, vg := dec.LocalVolume(), dec.Global.Volume()
			forEachSite(dec, gc, func(l, g int) {
				for s := 0; s < ls; s++ {
					global.S[s*vg+g] = local.S[s*vl+l]
				}
			})
		},
		newOperator: func(ctx *node.Ctx, comm *qmp.Comm, tm *team.Team, geo *geometry) distOperator[*fermion.Field5] {
			return newDistDWF(ctx, comm, tm, geo, gauge, m5, mf, ls, prec)
		},
	}
}

// validate checks the problem against the layout it is about to run on.
// Rank constructors assume it passed.
func (pr *problem[F]) validate(dec lattice.Decomp) error {
	if !(pr.tol > 0) || pr.maxIter < 1 || pr.ls < 1 || !finite(pr.mass) || !finite(pr.m5) {
		return fmt.Errorf("%w: tolerance %g, iteration limit %d, Ls %d, mass %g, m5 %g",
			ErrSolveParams, pr.tol, pr.maxIter, pr.ls, pr.mass, pr.m5)
	}
	if pr.gaugeL != dec.Global || pr.bL != dec.Global || pr.bLs != pr.ls {
		return fmt.Errorf("%w: gauge %v, source %v (Ls %d) on lattice %v (Ls %d)",
			ErrShape, pr.gaugeL, pr.bL, pr.bLs, dec.Global, pr.ls)
	}
	for mu := 0; mu < lattice.Ndim; mu++ {
		if dec.Grid[mu] > 1 && dec.Local[mu] < pr.reach {
			return fmt.Errorf("%w: %s needs %d sites per node in distributed direction %d, local volume is %v",
				ErrLocalExtent, pr.kind, pr.reach, mu, dec.Local)
		}
	}
	return nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// solveOutput is what the ranks of one launch leave behind.
type solveOutput[F any] struct {
	solution F // global field; every rank gathers its x into its own sites
	// Per-rank solver errors: rank programs may execute on different shard
	// engines concurrently, so each writes only its own element.
	errs []error
	res  solver.Result // rank 0's
}

// rankProgram builds the SPMD program of a distributed CGNE solve, the
// one body every operator and both launchers (Session solves through
// RunSPMD, chaos attempts through the qdaemon) run: scatter the node's
// share of b, build the operator on the launch's geometry (made here)
// and the distributed vector space, run CG on the normal equations —
// every halo exchange and global sum travelling the simulated network,
// every kernel charged to the CPU model — and gather x.
func rankProgram[F solver.Field[F]](lay Layout, pr problem[F], nodes int) (func(rank int) node.Program, *solveOutput[F]) {
	dec := lay.Dec
	out := &solveOutput[F]{solution: pr.newField(dec.Global), errs: make([]error, nodes)}
	geo := newGeometry(dec, pr.reach)
	return func(rank int) node.Program {
		return func(ctx *node.Ctx) {
			// The rank's site loops fork over this team; the deferred Close
			// also runs when a kill or a shutdown unwinds the rank.
			var tm team.Team
			defer tm.Close()
			comm := qmp.New(ctx, lay.Fold)
			gc := GridCoord(comm.Coord())
			b := pr.scatter(pr.b, dec, gc)
			op := pr.newOperator(ctx, comm, &tm, geo)
			sp := newDistSpace(ctx, comm, &tm, dec, &pr)
			var x F
			if pr.warmStart != nil {
				x = pr.scatter(pr.warmStart(), dec, gc)
			} else {
				x = sp.New()
			}
			var ck solver.Checkpoint[F]
			if pr.checkpointer != nil {
				ck = pr.checkpointer(ctx, rank)
			}
			res, err := solver.CGNE(sp, op.Apply, op.ApplyDag, x, b, pr.tol, pr.maxIter, ck)
			out.errs[rank] = err
			pr.gather(out.solution, dec, gc, x)
			if rank == 0 {
				out.res = res
			}
		}
	}, out
}

// blas is a field's AXPY (y += a x) or, with x unset, Scale (y *= a) as
// a team kernel over the field's sites.
type blas[F solver.Field[F]] struct {
	y, x F
	a    complex128
	axpy bool
}

func (k *blas[F]) Range(lo, hi int) {
	if k.axpy {
		k.y.AXPYRange(lo, hi, k.a, k.x)
	} else {
		k.y.ScaleRange(lo, hi, k.a)
	}
}

// distSpace is the solver vector space of a distributed field: the
// field's own BLAS on the node's sub-lattice — the in-place updates
// forked over the rank's team, the reductions one serial sum in site
// order (forking them would change the rounding) — each reduction
// completed machine-wide through the SCU global-sum hardware, each
// operation charged to the CPU model. Linear-algebra charges scale with
// the Ls slices a site carries.
type distSpace[F solver.Field[F]] struct {
	ctx                   *node.Ctx
	comm                  *qmp.Comm
	tm                    *team.Team
	pr                    *problem[F]
	local                 lattice.Shape4
	axpyCharge, dotCharge ppc440.KernelCost
	update                blas[F]
	iterAt                event.Time // when the previous iteration ended
}

func newDistSpace[F solver.Field[F]](ctx *node.Ctx, comm *qmp.Comm, tm *team.Team, dec lattice.Decomp, pr *problem[F]) *distSpace[F] {
	vol := float64(dec.LocalVolume())
	level := fermion.WorkingSetLevel(pr.kind, pr.prec, dec.LocalVolume())
	return &distSpace[F]{ctx: ctx, comm: comm, tm: tm, pr: pr, local: dec.Local,
		axpyCharge: fermion.AXPYCost(pr.kind, pr.prec, level).Scale(vol).Scale(float64(pr.ls)),
		dotCharge:  fermion.DotCost(pr.kind, pr.prec, level).Scale(vol).Scale(float64(pr.ls))}
}

func (s *distSpace[F]) New() F          { return s.pr.newField(s.local) }
func (s *distSpace[F]) Copy(dst, src F) { dst.Copy(src) }

func (s *distSpace[F]) Dot(a, b F) complex128 {
	z := a.Dot(b)
	re := s.globalSum(real(z))
	im := s.globalSum(imag(z))
	return complex(re, im)
}

func (s *distSpace[F]) Norm2(a F) float64 { return s.globalSum(a.Norm2()) }

func (s *distSpace[F]) globalSum(x float64) float64 {
	s.ctx.N.Compute(s.ctx.P, s.dotCharge)
	return s.comm.GlobalSumFloat64(s.ctx.P, x)
}

func (s *distSpace[F]) AXPY(y F, a complex128, x F) { s.run(blas[F]{y: y, x: x, a: a, axpy: true}) }
func (s *distSpace[F]) Scale(x F, a complex128)     { s.run(blas[F]{y: x, a: a}) }

func (s *distSpace[F]) run(k blas[F]) {
	s.ctx.N.Compute(s.ctx.P, s.axpyCharge)
	s.update = k
	s.tm.Run(s.local.Volume()*s.pr.ls, &s.update) // a field's index range
}

// Iterated counts the iteration in the node's telemetry, if enabled, and
// records its simulated time into the CG-iteration histogram.
func (s *distSpace[F]) Iterated() {
	ctr := s.ctx.N.Counters()
	if ctr == nil {
		return
	}
	ctr.SolverIterations++
	now := s.ctx.P.Now()
	if s.iterAt != 0 {
		ctr.IterTime.Record(uint64(now - s.iterAt))
	}
	s.iterAt = now
}

// solve runs a distributed CGNE solve of pr on the session's machine and
// returns the gathered global solution and timing metrics.
func solve[F solver.Field[F]](s *Session, name string, pr problem[F]) (F, SolveMetrics, error) {
	var none F
	if err := pr.validate(s.Lay.Dec); err != nil {
		return none, SolveMetrics{}, err
	}
	program, out := rankProgram(s.Lay, pr, s.M.NumNodes())
	start := s.Eng.Now()
	runErr := s.M.RunSPMD(name, program)
	met := SolveMetrics{
		Iterations:   out.res.Iterations,
		Applications: out.res.Applications,
		RelResidual:  out.res.RelResidual,
	}
	if runErr != nil {
		return none, met, runErr
	}
	if err := firstOf(out.errs); err != nil {
		return out.solution, met, err
	}
	met.SimTime = s.M.ProgramEnd() - start
	s.fillMetrics(&met, pr.kind, pr.ls)
	_, err := s.M.VerifyChecksums()
	return out.solution, met, err
}

// SolveWilson runs a distributed CGNE Wilson solve of D x = b on the
// machine, with every halo exchange and global sum travelling the
// simulated network and every kernel charged to the CPU model. It
// returns the gathered global solution and timing metrics.
func (s *Session) SolveWilson(gauge *lattice.GaugeField, b *lattice.FermionField, mass float64, prec fermion.Precision, tol float64, maxIter int) (*lattice.FermionField, SolveMetrics, error) {
	return solve(s, "wilson-cg", wilsonProblem(gauge, nil, b, mass, prec, tol, maxIter))
}

// SolveClover runs a distributed CGNE solve of the clover-improved
// operator. ref is the clover operator built on the global gauge field
// (the clover term is a per-configuration precomputation).
func (s *Session) SolveClover(ref *fermion.Clover, b *lattice.FermionField, prec fermion.Precision, tol float64, maxIter int) (*lattice.FermionField, SolveMetrics, error) {
	return solve(s, "clover-cg", wilsonProblem(ref.G, ref, b, ref.Mass, prec, tol, maxIter))
}

// SolveASQTAD runs a distributed CGNE solve of the ASQTAD staggered
// operator. ref carries the globally precomputed fat and long links.
func (s *Session) SolveASQTAD(ref *fermion.ASQTAD, b *lattice.ColorField, prec fermion.Precision, tol float64, maxIter int) (*lattice.ColorField, SolveMetrics, error) {
	return solve(s, "asqtad-cg", asqtadProblem(ref, b, prec, tol, maxIter))
}

// SolveDWF runs a distributed CGNE solve of the domain-wall operator.
func (s *Session) SolveDWF(gauge *lattice.GaugeField, b *fermion.Field5, m5, mf float64, ls int, prec fermion.Precision, tol float64, maxIter int) (*fermion.Field5, SolveMetrics, error) {
	return solve(s, "dwf-cg", dwfProblem(gauge, b, m5, mf, ls, prec, tol, maxIter))
}
