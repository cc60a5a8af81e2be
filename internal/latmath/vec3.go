// Package latmath provides the dense linear algebra of lattice QCD: SU(3)
// color matrices, color 3-vectors, 4-component Dirac spinors, the gamma
// matrices with spin projection/reconstruction used by Wilson-type
// operators, and small utilities (SU(2) subgroup embedding, Hermitian
// exponentials) used by the gauge evolution code.
//
// Everything is complex128; all operations are deterministic, which the
// bit-identical reproducibility experiment (E10) relies on.
package latmath

import "math"

// Vec3 is a color vector: the fundamental representation of SU(3).
type Vec3 [3]complex128

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 {
	return Vec3{v[0] + w[0], v[1] + w[1], v[2] + w[2]}
}

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 {
	return Vec3{v[0] - w[0], v[1] - w[1], v[2] - w[2]}
}

// Scale returns a*v.
func (v Vec3) Scale(a complex128) Vec3 {
	return Vec3{a * v[0], a * v[1], a * v[2]}
}

// Dot returns the Hermitian inner product v† w.
func (v Vec3) Dot(w Vec3) complex128 {
	var s complex128
	for i := range v {
		s += conj(v[i]) * w[i]
	}
	return s
}

// Norm2 returns |v|^2 = v† v (real, returned as float64).
func (v Vec3) Norm2() float64 {
	var s float64
	for i := range v {
		s += real(v[i])*real(v[i]) + imag(v[i])*imag(v[i])
	}
	return s
}

// AXPY returns a*x + v.
func (v Vec3) AXPY(a complex128, x Vec3) Vec3 {
	return Vec3{v[0] + a*x[0], v[1] + a*x[1], v[2] + a*x[2]}
}

func conj(z complex128) complex128 { return complex(real(z), -imag(z)) }

// approxEqual compares with absolute tolerance.
func approxEqual(a, b complex128, tol float64) bool {
	return math.Abs(real(a)-real(b)) <= tol && math.Abs(imag(a)-imag(b)) <= tol
}
