package latmath

import "math"

// Source is the minimal random stream the algebra needs: uniform values
// in [0,1). The deterministic per-site generators in internal/rng satisfy
// it.
type Source interface {
	Float64() float64
}

// gauss draws a standard normal via Box-Muller (two uniforms per pair;
// deterministic for a deterministic Source).
func gauss(src Source) (float64, float64) {
	var u float64
	for {
		u = src.Float64()
		if u > 0 {
			break
		}
	}
	v := src.Float64()
	r := math.Sqrt(-2 * math.Log(u))
	return r * math.Cos(2*math.Pi*v), r * math.Sin(2*math.Pi*v)
}

// GaussianVec3 draws a color vector with independent unit-normal real and
// imaginary parts — the source vectors for pseudofermions and random
// solver right-hand sides.
func GaussianVec3(src Source) Vec3 {
	var v Vec3
	for c := 0; c < 3; c++ {
		re, im := gauss(src)
		v[c] = complex(re, im)
	}
	return v
}

// GaussianSpinor draws a spinor with unit-normal components.
func GaussianSpinor(src Source) Spinor {
	var s Spinor
	for a := 0; a < 4; a++ {
		s[a] = GaussianVec3(src)
	}
	return s
}

// SU2 is an SU(2) element in quaternion form: a0 + i(a1 σ1 + a2 σ2 + a3 σ3)
// with a0²+a1²+a2²+a3² = 1.
type SU2 struct{ A0, A1, A2, A3 float64 }

// Mat returns the 2x2 complex matrix.
func (u SU2) Mat() [2][2]complex128 {
	return [2][2]complex128{
		{complex(u.A0, u.A3), complex(u.A2, u.A1)},
		{complex(-u.A2, u.A1), complex(u.A0, -u.A3)},
	}
}

// Mul returns the quaternion product u v.
func (u SU2) Mul(v SU2) SU2 {
	return SU2{
		A0: u.A0*v.A0 - u.A1*v.A1 - u.A2*v.A2 - u.A3*v.A3,
		A1: u.A0*v.A1 + u.A1*v.A0 + u.A2*v.A3 - u.A3*v.A2,
		A2: u.A0*v.A2 - u.A1*v.A3 + u.A2*v.A0 + u.A3*v.A1,
		A3: u.A0*v.A3 + u.A1*v.A2 - u.A2*v.A1 + u.A3*v.A0,
	}
}

// Conj returns the quaternion conjugate — the inverse for unit
// quaternions.
func (u SU2) Conj() SU2 { return SU2{u.A0, -u.A1, -u.A2, -u.A3} }

// su2Subgroups lists the (p,q) index pairs of the three SU(2) subgroups
// of SU(3) used by Cabibbo-Marinari pseudo-heatbath sweeps.
var su2Subgroups = [3][2]int{{0, 1}, {0, 2}, {1, 2}}

// NumSU2Subgroups is the number of embedded SU(2) subgroups swept.
const NumSU2Subgroups = len(su2Subgroups)

// EmbedSU2 places an SU(2) element into the (p,q) subgroup of SU(3)
// (subgroup index 0..2), identity elsewhere.
func EmbedSU2(u SU2, subgroup int) Mat3 {
	p, q := su2Subgroups[subgroup][0], su2Subgroups[subgroup][1]
	m := Identity3()
	w := u.Mat()
	m[p][p] = w[0][0]
	m[p][q] = w[0][1]
	m[q][p] = w[1][0]
	m[q][q] = w[1][1]
	return m
}

// ExtractSU2 pulls the best SU(2) approximation of the (p,q) submatrix
// of m: the quaternion components of (m_pp+m_qq*, m_pq+m_qp*, ...)
// before normalization, plus its norm k. This is the Cabibbo-Marinari
// staple projection; if k is ~0 the submatrix carries no SU(2) part.
func ExtractSU2(m Mat3, subgroup int) (SU2, float64) {
	p, q := su2Subgroups[subgroup][0], su2Subgroups[subgroup][1]
	a0 := (real(m[p][p]) + real(m[q][q])) / 2
	a3 := (imag(m[p][p]) - imag(m[q][q])) / 2
	a2 := (real(m[p][q]) - real(m[q][p])) / 2
	a1 := (imag(m[p][q]) + imag(m[q][p])) / 2
	k := math.Sqrt(a0*a0 + a1*a1 + a2*a2 + a3*a3)
	if k == 0 {
		return SU2{A0: 1}, 0
	}
	return SU2{a0 / k, a1 / k, a2 / k, a3 / k}, k
}

// randomSU2 draws a uniformly distributed SU(2) element.
func randomSU2(src Source) SU2 {
	g0, g1 := gauss(src)
	g2, g3 := gauss(src)
	n := math.Sqrt(g0*g0 + g1*g1 + g2*g2 + g3*g3)
	if n == 0 {
		return SU2{A0: 1}
	}
	return SU2{g0 / n, g1 / n, g2 / n, g3 / n}
}

// RandomSU3 draws an approximately Haar-distributed SU(3) element by
// multiplying random SU(2) elements in each subgroup and reunitarizing.
func RandomSU3(src Source) Mat3 {
	m := Identity3()
	for rep := 0; rep < 2; rep++ {
		for sg := 0; sg < NumSU2Subgroups; sg++ {
			m = EmbedSU2(randomSU2(src), sg).Mul(m)
		}
	}
	return m.Reunitarize()
}
