package latmath

import "math"

// Mat3 is a 3x3 complex color matrix, row-major: M[row][col]. Gauge
// links are SU(3) elements of this type.
type Mat3 [3][3]complex128

// Identity3 returns the identity matrix.
func Identity3() Mat3 {
	var m Mat3
	for i := 0; i < 3; i++ {
		m[i][i] = 1
	}
	return m
}

// Zero3 returns the zero matrix.
func Zero3() Mat3 { return Mat3{} }

// Add returns m + n.
func (m Mat3) Add(n Mat3) Mat3 {
	var r Mat3
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			r[i][j] = m[i][j] + n[i][j]
		}
	}
	return r
}

// Sub returns m - n.
func (m Mat3) Sub(n Mat3) Mat3 {
	var r Mat3
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			r[i][j] = m[i][j] - n[i][j]
		}
	}
	return r
}

// Scale returns a*m.
func (m Mat3) Scale(a complex128) Mat3 {
	var r Mat3
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			r[i][j] = a * m[i][j]
		}
	}
	return r
}

// Mul returns m n.
func (m Mat3) Mul(n Mat3) Mat3 {
	var r Mat3
	for i := 0; i < 3; i++ {
		for k := 0; k < 3; k++ {
			a := m[i][k]
			if a == 0 {
				continue
			}
			for j := 0; j < 3; j++ {
				r[i][j] += a * n[k][j]
			}
		}
	}
	return r
}

// Dagger returns the Hermitian conjugate m†.
func (m Mat3) Dagger() Mat3 {
	var r Mat3
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			r[i][j] = conj(m[j][i])
		}
	}
	return r
}

// MulVec returns m v.
func (m Mat3) MulVec(v Vec3) Vec3 {
	var r Vec3
	for i := 0; i < 3; i++ {
		r[i] = m[i][0]*v[0] + m[i][1]*v[1] + m[i][2]*v[2]
	}
	return r
}

// DagMulVec returns m† v without forming the dagger.
func (m Mat3) DagMulVec(v Vec3) Vec3 {
	var r Vec3
	for i := 0; i < 3; i++ {
		r[i] = conj(m[0][i])*v[0] + conj(m[1][i])*v[1] + conj(m[2][i])*v[2]
	}
	return r
}

// Trace returns tr(m).
func (m Mat3) Trace() complex128 { return m[0][0] + m[1][1] + m[2][2] }

// ReTrace returns Re tr(m), the quantity entering the Wilson gauge
// action.
func (m Mat3) ReTrace() float64 { return real(m.Trace()) }

// Det returns the determinant.
func (m Mat3) Det() complex128 {
	return m[0][0]*(m[1][1]*m[2][2]-m[1][2]*m[2][1]) -
		m[0][1]*(m[1][0]*m[2][2]-m[1][2]*m[2][0]) +
		m[0][2]*(m[1][0]*m[2][1]-m[1][1]*m[2][0])
}

// FrobeniusDistance returns ||m-n||_F.
func (m Mat3) FrobeniusDistance(n Mat3) float64 {
	var s float64
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			d := m[i][j] - n[i][j]
			s += real(d)*real(d) + imag(d)*imag(d)
		}
	}
	return math.Sqrt(s)
}

// IsUnitary reports whether m† m = 1 within tol.
func (m Mat3) IsUnitary(tol float64) bool {
	return m.Dagger().Mul(m).FrobeniusDistance(Identity3()) <= tol
}

// IsSU3 reports whether m is unitary with determinant 1 within tol.
func (m Mat3) IsSU3(tol float64) bool {
	return m.IsUnitary(tol) && approxEqual(m.Det(), 1, tol)
}

// row returns row i as a Vec3.
func (m Mat3) row(i int) Vec3 { return Vec3{m[i][0], m[i][1], m[i][2]} }

func (m *Mat3) setRow(i int, v Vec3) {
	m[i][0], m[i][1], m[i][2] = v[0], v[1], v[2]
}

// Reunitarize projects m back onto SU(3) by Gram-Schmidt on the first
// two rows and completing the third row as the conjugate cross product —
// the standard cure for accumulated rounding drift in gauge evolution.
func (m Mat3) Reunitarize() Mat3 {
	r0 := m.row(0)
	n0 := math.Sqrt(r0.Norm2())
	r0 = r0.Scale(complex(1/n0, 0))
	r1 := m.row(1)
	r1 = r1.Sub(r0.Scale(r0.Dot(r1)))
	n1 := math.Sqrt(r1.Norm2())
	r1 = r1.Scale(complex(1/n1, 0))
	// r2 = conj(r0 x r1) makes det = +1.
	r2 := Vec3{
		conj(r0[1]*r1[2] - r0[2]*r1[1]),
		conj(r0[2]*r1[0] - r0[0]*r1[2]),
		conj(r0[0]*r1[1] - r0[1]*r1[0]),
	}
	var out Mat3
	out.setRow(0, r0)
	out.setRow(1, r1)
	out.setRow(2, r2)
	return out
}

// TracelessAntiHermitian projects m onto the su(3) algebra:
// (m - m†)/2 - tr(m - m†)/6, the projection used when building field
// strength.
func (m Mat3) TracelessAntiHermitian() Mat3 {
	a := m.Sub(m.Dagger()).Scale(0.5)
	tr := a.Trace() / 3
	for i := 0; i < 3; i++ {
		a[i][i] -= tr
	}
	return a
}
