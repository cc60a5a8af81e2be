// Package solver implements the Krylov-space solvers that dominate QCD
// calculational time (§1: "standard Krylov space solvers work well ...
// and dominate the calculational time for QCD simulations"). The
// production method is conjugate gradient on the normal equations
// (CGNE): solve D†D x = D†b, which is Hermitian positive definite for
// every Dirac discretization in this repository.
//
// The solver is generic over the field type via a small vector-space
// descriptor, so the same code drives Wilson/clover spinor fields,
// staggered color fields, domain-wall 5-D fields — and, in the
// multi-node machine simulation, distributed fields whose inner products
// ride the SCU's global-sum hardware.
package solver

import (
	"errors"
	"fmt"
	"math"
)

// Space describes the vector space of a field type T: allocation and the
// BLAS-1 operations CG needs. Dot and Norm2 are *global* reductions; in
// the distributed implementation they are backed by the machine's global
// sum.
type Space[T any] interface {
	New() T
	Copy(dst, src T)
	Dot(a, b T) complex128
	Norm2(a T) float64
	// AXPY computes y += a*x in place.
	AXPY(y T, a complex128, x T)
	// Scale computes x *= a in place.
	Scale(x T, a complex128)
	// Iterated is called once after each completed solver iteration — a
	// pure observation hook (telemetry counters); it must not mutate
	// solver state.
	Iterated()
}

// Op applies a linear operator: dst = A src.
type Op[T any] func(dst, src T)

// Result reports a solve.
type Result struct {
	Converged  bool
	Iterations int
	// RelResidual is the final true relative residual |D x - b| / |b|.
	RelResidual float64
	// Applications counts operator applications (D or D†), the unit the
	// performance model charges.
	Applications int
}

// ErrMaxIterations is returned when the solver fails to reach tolerance.
var ErrMaxIterations = errors.New("solver: maximum iterations reached")

// Checkpoint configures periodic capture of the solution iterate during
// a solve. Every Every completed iterations, Save is handed the
// iteration count and the current x; serializing it (checkpoint
// package, KindSolver) is the saver's business. CG is self-correcting
// in x: restoring a saved iterate and re-running the solve from it
// re-converges, which is what the chaos/recovery flow does after a node
// death. A zero Checkpoint disables capture.
type Checkpoint[T any] struct {
	// Every is the checkpoint interval in iterations; <= 0 disables.
	Every int
	// Save observes the iterate. It must copy what it keeps: x is the
	// live solver vector and the next iteration mutates it.
	Save func(iteration int, x T)
}

func (c Checkpoint[T]) due(iter int) bool {
	return c.Every > 0 && c.Save != nil && iter%c.Every == 0
}

// CGNE solves D x = b by conjugate gradient on the normal equations
// D†D x = D†b, starting from the contents of x. It stops when the
// normal-equation residual satisfies |r| <= tol*|D†b|, then reports the
// true relative residual. ck captures the iterate periodically (see
// Checkpoint; pass the zero value for none); its hook runs after an
// iteration's updates are complete, so a saved x is exactly the iterate
// the next iteration starts from.
func CGNE[T any](sp Space[T], applyD, applyDdag Op[T], x, b T, tol float64, maxIter int, ck Checkpoint[T]) (Result, error) {
	res := Result{}
	// bp = D† b.
	bp := sp.New()
	applyDdag(bp, b)
	res.Applications++
	bpNorm := math.Sqrt(sp.Norm2(bp))
	if bpNorm == 0 {
		// b in the null space of D† (or zero): x = 0 solves.
		sp.Scale(x, 0)
		res.Converged = true
		return res, nil
	}
	// r = bp - D†D x.
	tmp := sp.New()
	r := sp.New()
	applyD(tmp, x)
	applyDdag(r, tmp)
	res.Applications += 2
	sp.Scale(r, -1)
	sp.AXPY(r, 1, bp)
	p := sp.New()
	sp.Copy(p, r)
	rr := sp.Norm2(r)
	target := (tol * bpNorm) * (tol * bpNorm)

	ap := sp.New()
	for iter := 0; iter < maxIter; iter++ {
		if rr <= target {
			res.Converged = true
			break
		}
		// ap = D†D p.
		applyD(tmp, p)
		applyDdag(ap, tmp)
		res.Applications += 2
		pap := real(sp.Dot(p, ap))
		if pap <= 0 {
			return res, fmt.Errorf("solver: operator not positive definite (p†Ap = %g)", pap)
		}
		alpha := rr / pap
		sp.AXPY(x, complex(alpha, 0), p)
		sp.AXPY(r, complex(-alpha, 0), ap)
		rrNew := sp.Norm2(r)
		beta := rrNew / rr
		// p = r + beta p.
		sp.Scale(p, complex(beta, 0))
		sp.AXPY(p, 1, r)
		rr = rrNew
		res.Iterations = iter + 1
		sp.Iterated()
		if ck.due(res.Iterations) {
			ck.Save(res.Iterations, x)
		}
	}
	if rr <= target {
		res.Converged = true
	}
	// True residual.
	applyD(tmp, x)
	res.Applications++
	sp.Scale(tmp, -1)
	sp.AXPY(tmp, 1, b)
	bNorm := math.Sqrt(sp.Norm2(b))
	if bNorm > 0 {
		res.RelResidual = math.Sqrt(sp.Norm2(tmp)) / bNorm
	}
	if !res.Converged {
		return res, fmt.Errorf("%w after %d iterations (|r|/|b| = %.3g)",
			ErrMaxIterations, res.Iterations, res.RelResidual)
	}
	return res, nil
}
