package latmath

// Spinor is a Dirac 4-spinor of color vectors: 12 complex numbers, the
// per-site fermion degree of freedom for Wilson-type discretizations.
type Spinor [4]Vec3

// HalfSpinor is the two independent spin components of a spin-projected
// spinor (1 ∓ γ_mu)ψ — what actually travels between nodes during a
// Dslash halo exchange (12 complex numbers become 6).
type HalfSpinor [2]Vec3

// Add returns s + t.
func (s Spinor) Add(t Spinor) Spinor {
	return Spinor{s[0].Add(t[0]), s[1].Add(t[1]), s[2].Add(t[2]), s[3].Add(t[3])}
}

// Sub returns s - t.
func (s Spinor) Sub(t Spinor) Spinor {
	return Spinor{s[0].Sub(t[0]), s[1].Sub(t[1]), s[2].Sub(t[2]), s[3].Sub(t[3])}
}

// Scale returns a*s.
func (s Spinor) Scale(a complex128) Spinor {
	return Spinor{s[0].Scale(a), s[1].Scale(a), s[2].Scale(a), s[3].Scale(a)}
}

// AXPY returns s + a*x.
func (s Spinor) AXPY(a complex128, x Spinor) Spinor {
	return Spinor{s[0].AXPY(a, x[0]), s[1].AXPY(a, x[1]), s[2].AXPY(a, x[2]), s[3].AXPY(a, x[3])}
}

// Dot returns the full spin-color inner product s† t.
func (s Spinor) Dot(t Spinor) complex128 {
	var sum complex128
	for a := 0; a < 4; a++ {
		sum += s[a].Dot(t[a])
	}
	return sum
}

// Norm2 returns |s|^2.
func (s Spinor) Norm2() float64 {
	var sum float64
	for a := 0; a < 4; a++ {
		sum += s[a].Norm2()
	}
	return sum
}

// SpinorWords is the number of 64-bit words in a double-precision spinor
// (24 reals), and HalfSpinorWords in a half spinor (12 reals) — the unit
// of SCU traffic in a Wilson halo exchange.
const (
	SpinorWords     = 24
	HalfSpinorWords = 12
	Vec3Words       = 6
	Mat3Words       = 18
)

// PackSpinor serializes a spinor to 64-bit words (IEEE bits, real then
// imaginary, spin-major) for transport through node memory and the SCU.
func PackSpinor(s Spinor, dst []uint64) {
	i := 0
	for a := 0; a < 4; a++ {
		for c := 0; c < 3; c++ {
			dst[i] = f64bits(real(s[a][c]))
			dst[i+1] = f64bits(imag(s[a][c]))
			i += 2
		}
	}
}

// UnpackSpinor inverts PackSpinor.
func UnpackSpinor(src []uint64) Spinor {
	var s Spinor
	i := 0
	for a := 0; a < 4; a++ {
		for c := 0; c < 3; c++ {
			s[a][c] = complex(f64frombits(src[i]), f64frombits(src[i+1]))
			i += 2
		}
	}
	return s
}

// PackHalfSpinor serializes a half spinor to 12 words.
func PackHalfSpinor(h *HalfSpinor, dst []uint64) {
	i := 0
	for a := 0; a < 2; a++ {
		for c := 0; c < 3; c++ {
			dst[i] = f64bits(real(h[a][c]))
			dst[i+1] = f64bits(imag(h[a][c]))
			i += 2
		}
	}
}

// UnpackHalfSpinor inverts PackHalfSpinor, into h.
func UnpackHalfSpinor(h *HalfSpinor, src []uint64) {
	i := 0
	for a := 0; a < 2; a++ {
		for c := 0; c < 3; c++ {
			h[a][c] = complex(f64frombits(src[i]), f64frombits(src[i+1]))
			i += 2
		}
	}
}

// PackVec3 serializes a color vector to 6 words.
func PackVec3(v Vec3, dst []uint64) {
	for c := 0; c < 3; c++ {
		dst[2*c] = f64bits(real(v[c]))
		dst[2*c+1] = f64bits(imag(v[c]))
	}
}

// UnpackVec3 inverts PackVec3.
func UnpackVec3(src []uint64) Vec3 {
	var v Vec3
	for c := 0; c < 3; c++ {
		v[c] = complex(f64frombits(src[2*c]), f64frombits(src[2*c+1]))
	}
	return v
}

// PackMat3 serializes a color matrix to 18 words, row-major.
func PackMat3(m Mat3, dst []uint64) {
	i := 0
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			dst[i] = f64bits(real(m[r][c]))
			dst[i+1] = f64bits(imag(m[r][c]))
			i += 2
		}
	}
}

// UnpackMat3 inverts PackMat3.
func UnpackMat3(src []uint64) Mat3 {
	var m Mat3
	i := 0
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			m[r][c] = complex(f64frombits(src[i]), f64frombits(src[i+1]))
			i += 2
		}
	}
	return m
}
