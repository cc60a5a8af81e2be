package latmath

// The Wilson hop kernel: the spin-projected hopping term every
// Wilson-type operator (reference and distributed Wilson, clover,
// domain wall) is built from, as pointer forms that read the source
// spinor and the gauge link in place. The steps are kept apart because
// a distributed operator ships the half spinor between them.
//
// The floating-point expression of every component is part of the
// contract — solutions are compared bit for bit across decompositions
// and against pinned digests: h_a = (0 + c1 ψ_a) + c2 ψ_b2 and the
// lower components r0 h0 + r1 h1 as complex multiplies by the
// coefficients of 1 - s γ_μ, rows of U left to right, diag ψ - 0.5 acc.
// The coefficients are literals (1, ±1, ±i, 0; hop_test.go derives them
// from Gamma), so the compiler folds the exact real products x·1 = x and
// x·(-1) = -x; it cannot fold 0·x or 0 + x, and they stay: dropping
// them changes the sign of zero components (a point source is mostly
// zeros) or turns 0·∞ from NaN into 0.

// Project sets h to the two independent components of (1 - s γ_μ) ψ.
func (h *HalfSpinor) Project(mu, s int, psi *Spinor) {
	switch mu<<1 | signIndex(s) {
	case 0: // x+
		h[0].project(&psi[0], -1i, &psi[3])
		h[1].project(&psi[1], -1i, &psi[2])
	case 1: // x-
		h[0].project(&psi[0], 1i, &psi[3])
		h[1].project(&psi[1], 1i, &psi[2])
	case 2: // y+
		h[0].project(&psi[0], 1, &psi[3])
		h[1].project(&psi[1], -1, &psi[2])
	case 3: // y-
		h[0].project(&psi[0], -1, &psi[3])
		h[1].project(&psi[1], 1, &psi[2])
	case 4: // z+
		h[0].project(&psi[0], -1i, &psi[2])
		h[1].project(&psi[1], 1i, &psi[3])
	case 5: // z-
		h[0].project(&psi[0], 1i, &psi[2])
		h[1].project(&psi[1], -1i, &psi[3])
	case 6: // t+
		h[0].project(&psi[0], -1, &psi[2])
		h[1].project(&psi[1], -1, &psi[3])
	default: // t-
		h[0].project(&psi[0], 1, &psi[2])
		h[1].project(&psi[1], 1, &psi[3])
	}
}

// project sets v = (0 + 1 p) + c q, one row of a projection. It
// inlines, so a literal c reaches the multiplies.
func (v *Vec3) project(p *Vec3, c complex128, q *Vec3) {
	for k := range v {
		v[k] = (0 + 1*p[k]) + c*q[k]
	}
}

// MulMat sets v = m x; v and x may be the same vector.
func (v *Vec3) MulMat(m *Mat3, x *Vec3) {
	x0, x1, x2 := x[0], x[1], x[2]
	for i := range v {
		v[i] = m[i][0]*x0 + m[i][1]*x1 + m[i][2]*x2
	}
}

// DagMulMat sets v = m† x without forming the dagger; v and x may be
// the same vector.
func (v *Vec3) DagMulMat(m *Mat3, x *Vec3) {
	x0, x1, x2 := x[0], x[1], x[2]
	for i := range v {
		v[i] = conj(m[0][i])*x0 + conj(m[1][i])*x1 + conj(m[2][i])*x2
	}
}

// MulMat sets h = (u ⊗ 1) g, the link applied to both spin components;
// h and g may be the same half spinor.
func (h *HalfSpinor) MulMat(u *Mat3, g *HalfSpinor) {
	h[0].MulMat(u, &g[0])
	h[1].MulMat(u, &g[1])
}

// DagMulMat sets h = (u† ⊗ 1) g.
func (h *HalfSpinor) DagMulMat(u *Mat3, g *HalfSpinor) {
	h[0].DagMulMat(u, &g[0])
	h[1].DagMulMat(u, &g[1])
}

// AddReconstruct accumulates the four components of (1 - s γ_μ) ψ,
// rebuilt from its projection h, into acc.
func (acc *Spinor) AddReconstruct(mu, s int, h *HalfSpinor) {
	switch mu<<1 | signIndex(s) {
	case 0: // x+
		acc.addRecon(h, 0, 1i, 1i, 0)
	case 1: // x-
		acc.addRecon(h, 0, -1i, -1i, 0)
	case 2: // y+
		acc.addRecon(h, 0, -1, 1, 0)
	case 3: // y-
		acc.addRecon(h, 0, 1, -1, 0)
	case 4: // z+
		acc.addRecon(h, 1i, 0, 0, -1i)
	case 5: // z-
		acc.addRecon(h, -1i, 0, 0, 1i)
	case 6: // t+
		acc.addRecon(h, -1, 0, 0, -1)
	default: // t-
		acc.addRecon(h, 1, 0, 0, 1)
	}
}

// addRecon accumulates h and its lower components, rows (r00, r01) and
// (r10, r11) of recon, into acc. Like project it inlines, so literal
// rows fold.
func (acc *Spinor) addRecon(h *HalfSpinor, r00, r01, r10, r11 complex128) {
	for k := range h[0] {
		h0, h1 := h[0][k], h[1][k]
		acc[0][k] += h0
		acc[1][k] += h1
		acc[2][k] += r00*h0 + r01*h1
		acc[3][k] += r10*h0 + r11*h1
	}
}

// HopResult closes a site: dst = diag ψ - ½ acc, with acc the sum of
// the site's eight hops.
func (dst *Spinor) HopResult(diag complex128, psi, acc *Spinor) {
	for a := range dst {
		for k := range dst[a] {
			dst[a][k] = diag*psi[a][k] - 0.5*acc[a][k]
		}
	}
}
