package latmath

import (
	"fmt"
	"math"
)

// f64bits/f64frombits are tiny wrappers so spinor.go stays import-light.
func f64bits(f float64) uint64     { return math.Float64bits(f) }
func f64frombits(b uint64) float64 { return math.Float64frombits(b) }

// Mat4 is a 4x4 complex spin matrix.
type Mat4 [4][4]complex128

// The Dirac gamma matrices in the DeGrand-Rossi (chiral) basis, indexed
// by direction 0..3 = x, y, z, t. In this basis γ5 = diag(+1,+1,-1,-1),
// which makes domain-wall chirality projectors trivial. All four tables
// here are pure-value arrays computed at declaration and never written
// afterwards: every machine in a fleet reads the same immutable copies.
var Gamma = buildGamma()

// Gamma5 is the chirality matrix, γ5 = γ_x γ_y γ_z γ_t.
var Gamma5 = Gamma[0].Mul(Gamma[1]).Mul(Gamma[2]).Mul(Gamma[3])

// Identity4 is the 4x4 identity.
var Identity4 = buildIdentity4()

func buildGamma() [4]Mat4 {
	i := complex(0, 1)
	return [4]Mat4{
		{ // γ_x
			{0, 0, 0, i},
			{0, 0, i, 0},
			{0, -i, 0, 0},
			{-i, 0, 0, 0},
		},
		{ // γ_y
			{0, 0, 0, -1},
			{0, 0, 1, 0},
			{0, 1, 0, 0},
			{-1, 0, 0, 0},
		},
		{ // γ_z
			{0, 0, i, 0},
			{0, 0, 0, -i},
			{-i, 0, 0, 0},
			{0, i, 0, 0},
		},
		{ // γ_t
			{0, 0, 1, 0},
			{0, 0, 0, 1},
			{1, 0, 0, 0},
			{0, 1, 0, 0},
		},
	}
}

func buildIdentity4() Mat4 {
	var m Mat4
	for r := 0; r < 4; r++ {
		m[r][r] = 1
	}
	return m
}

// Mul returns m n.
func (m Mat4) Mul(n Mat4) Mat4 {
	var r Mat4
	for i := 0; i < 4; i++ {
		for k := 0; k < 4; k++ {
			a := m[i][k]
			if a == 0 {
				continue
			}
			for j := 0; j < 4; j++ {
				r[i][j] += a * n[k][j]
			}
		}
	}
	return r
}

// Add returns m + n.
func (m Mat4) Add(n Mat4) Mat4 {
	var r Mat4
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			r[i][j] = m[i][j] + n[i][j]
		}
	}
	return r
}

// Sub returns m - n.
func (m Mat4) Sub(n Mat4) Mat4 {
	var r Mat4
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			r[i][j] = m[i][j] - n[i][j]
		}
	}
	return r
}

// Scale returns a m.
func (m Mat4) Scale(a complex128) Mat4 {
	var r Mat4
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			r[i][j] = a * m[i][j]
		}
	}
	return r
}

// Dagger returns m†.
func (m Mat4) Dagger() Mat4 {
	var r Mat4
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			r[i][j] = conj(m[j][i])
		}
	}
	return r
}

// ApplySpin applies the spin matrix to a spinor: (m ⊗ 1_color) s.
func (m Mat4) ApplySpin(s Spinor) Spinor {
	var r Spinor
	for a := 0; a < 4; a++ {
		for b := 0; b < 4; b++ {
			c := m[a][b]
			if c == 0 {
				continue
			}
			r[a] = r[a].AXPY(c, s[b])
		}
	}
	return r
}

// Sigma returns σ_{μν} = (i/2)[γ_μ, γ_ν], the spin tensor entering the
// clover term.
func Sigma(mu, nu int) Mat4 {
	comm := Gamma[mu].Mul(Gamma[nu]).Sub(Gamma[nu].Mul(Gamma[mu]))
	return comm.Scale(complex(0, 0.5))
}

// Spin projection. For hopping direction μ and sign s = ±1 the Wilson
// operator applies P = (1 - s γ_μ), a rank-2 matrix: the projected
// spinor's lower two spin components are a fixed linear combination of
// the upper two. recon[μ][sIdx] holds that 2x2 map R with
// (Pψ)_{2+j} = Σ_k R[j][k] (Pψ)_k, computed (and verified) at
// declaration for whatever basis Gamma holds. By-value Reconstruct reads
// it; the hop kernel's literals are held to it by hop_test.go.
var recon = buildProjectors()

func buildProjectors() (recon [4][2][2][2]complex128) {
	for mu := 0; mu < 4; mu++ {
		for sIdx, s := range []complex128{+1, -1} {
			P := Identity4.Sub(Gamma[mu].Scale(s))
			// Solve [P2c; P3c] = R [P0c; P1c] for all columns c. Find two
			// columns making the top 2x2 invertible.
			var R [2][2]complex128
			found := false
			for c0 := 0; c0 < 4 && !found; c0++ {
				for c1 := c0 + 1; c1 < 4 && !found; c1++ {
					det := P[0][c0]*P[1][c1] - P[0][c1]*P[1][c0]
					if abs2(det) < 1e-12 {
						continue
					}
					inv := [2][2]complex128{
						{P[1][c1] / det, -P[0][c1] / det},
						{-P[1][c0] / det, P[0][c0] / det},
					}
					for j := 0; j < 2; j++ {
						R[j][0] = P[2+j][c0]*inv[0][0] + P[2+j][c1]*inv[1][0]
						R[j][1] = P[2+j][c0]*inv[0][1] + P[2+j][c1]*inv[1][1]
					}
					found = true
				}
			}
			if !found {
				panic(fmt.Sprintf("latmath: projector (mu=%d s=%v) not rank deficient as expected", mu, s))
			}
			// Verify the relation on every column.
			for c := 0; c < 4; c++ {
				for j := 0; j < 2; j++ {
					got := R[j][0]*P[0][c] + R[j][1]*P[1][c]
					if !approxEqual(got, P[2+j][c], 1e-12) {
						panic(fmt.Sprintf("latmath: spin reconstruction failed for mu=%d s=%v", mu, s))
					}
				}
			}
			recon[mu][sIdx] = R
		}
	}
	return recon
}

func abs2(z complex128) float64 { return real(z)*real(z) + imag(z)*imag(z) }

func signIndex(s int) int {
	if s > 0 {
		return 0
	}
	return 1
}

// Project computes the two independent components of (1 - s γ_μ) ψ.
// This is what is sent to a neighbour: 12 complex numbers instead of 24.
func Project(mu, s int, psi Spinor) HalfSpinor {
	var h HalfSpinor
	h.Project(mu, s, &psi)
	return h
}

// Reconstruct expands a projected half spinor back to the full four
// components of (1 - s γ_μ) ψ using the precomputed 2x2 map.
func Reconstruct(mu, s int, h HalfSpinor) Spinor {
	R := recon[mu][signIndex(s)]
	out := Spinor{h[0], h[1]}
	for k := range h[0] {
		out[2][k] = R[0][0]*h[0][k] + R[0][1]*h[1][k]
		out[3][k] = R[1][0]*h[0][k] + R[1][1]*h[1][k]
	}
	return out
}
