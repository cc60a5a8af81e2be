package solver

import (
	"qcdoc/internal/fermion"
	"qcdoc/internal/lattice"
)

// Field is the BLAS-1 method set every lattice field type in this
// repository carries (spinor, staggered color and domain-wall 5-D
// fields); T is the field's own pointer type.
type Field[T any] interface {
	Dot(T) complex128
	Norm2() float64
	AXPY(a complex128, x T)
	Scale(a complex128)
	Copy(T)
	// The in-place updates on sites [lo, hi), for a caller that splits
	// the field over several cores.
	AXPYRange(lo, hi int, a complex128, x T)
	ScaleRange(lo, hi int, a complex128)
}

// local is the vector space of a field type on one node, built from the
// field's own methods; calling it allocates a zero field of its shape.
type local[T Field[T]] func() T

func (s local[T]) New() T                    { return s() }
func (local[T]) Copy(dst, src T)             { dst.Copy(src) }
func (local[T]) Dot(a, b T) complex128       { return a.Dot(b) }
func (local[T]) Norm2(a T) float64           { return a.Norm2() }
func (local[T]) AXPY(y T, a complex128, x T) { y.AXPY(a, x) }
func (local[T]) Scale(x T, a complex128)     { x.Scale(a) }
func (local[T]) Iterated()                   {}

// SolveDirac runs CGNE for a Dirac operator.
func SolveDirac(op fermion.DiracOperator, x, b *lattice.FermionField, tol float64, maxIter int) (Result, error) {
	sp := local[*lattice.FermionField](func() *lattice.FermionField { return lattice.NewFermionField(op.Lattice()) })
	return CGNE(sp, op.Apply, op.ApplyDag, x, b, tol, maxIter, Checkpoint[*lattice.FermionField]{})
}

// SolveStaggered runs CGNE for a staggered operator.
func SolveStaggered(op fermion.StaggeredOperator, x, b *lattice.ColorField, tol float64, maxIter int) (Result, error) {
	sp := local[*lattice.ColorField](func() *lattice.ColorField { return lattice.NewColorField(op.Lattice()) })
	return CGNE(sp, op.Apply, op.ApplyDag, x, b, tol, maxIter, Checkpoint[*lattice.ColorField]{})
}

// SolveDWF runs CGNE for the domain-wall operator.
func SolveDWF(op *fermion.DWF, x, b *fermion.Field5, tol float64, maxIter int) (Result, error) {
	sp := local[*fermion.Field5](func() *fermion.Field5 { return fermion.NewField5(op.Lattice(), op.Ls) })
	return CGNE(sp, op.Apply, op.ApplyDag, x, b, tol, maxIter, Checkpoint[*fermion.Field5]{})
}
