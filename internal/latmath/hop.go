package latmath

// The Wilson hop kernel: the spin-projected hopping term every
// Wilson-type operator (reference and distributed Wilson, clover,
// domain wall) is built from, as pointer forms that read the source
// spinor and the gauge link in place. The steps are kept apart because
// a distributed operator ships the half spinor between them.
//
// The floating-point expression of every component is part of the
// contract — solutions are compared bit for bit across decompositions
// and against pinned digests: h_a = (0 + c1 ψ_a) + c2 ψ_b2 with full
// complex multiplies by the table entries, rows of U left to right,
// R00 h0 + R01 h1, diag ψ - 0.5 acc. Multiplying by 1 and ±i and adding
// to zero look redundant, but folding them changes the sign of zero
// components (a point source is mostly zeros).

// Project sets h to the two independent components of (1 - s γ_μ) ψ.
func (h *HalfSpinor) Project(mu, s int, psi *Spinor) {
	si := signIndex(s)
	for a := range h {
		r := proj[mu][si][a]
		p1, p2 := &psi[a], &psi[r.b2]
		for k := range h[a] {
			h[a][k] = (0 + r.c1*p1[k]) + r.c2*p2[k]
		}
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

// reconLower is one lower component of a reconstructed spinor from the
// two projected ones, with (r0, r1) a row of recon.
func reconLower(r0, r1, h0, h1 complex128) complex128 { return r0*h0 + r1*h1 }

// AddReconstruct accumulates the four components of (1 - s γ_μ) ψ,
// rebuilt from its projection h, into acc.
func (acc *Spinor) AddReconstruct(mu, s int, h *HalfSpinor) {
	si := signIndex(s)
	r00, r01 := recon[mu][si][0][0], recon[mu][si][0][1]
	r10, r11 := recon[mu][si][1][0], recon[mu][si][1][1]
	for k := range h[0] {
		h0, h1 := h[0][k], h[1][k]
		acc[0][k] += h0
		acc[1][k] += h1
		acc[2][k] += reconLower(r00, r01, h0, h1)
		acc[3][k] += reconLower(r10, r11, h0, h1)
	}
}

// Hop accumulates one neighbour's hopping term into acc: ψ projected
// with (1 - s γ_μ), carried by the link — u for the forward hop s = +1,
// u† for the backward hop s = -1 — and reconstructed.
func (acc *Spinor) Hop(mu, s int, u *Mat3, psi *Spinor) {
	var h HalfSpinor
	h.Project(mu, s, psi)
	if s > 0 {
		h.MulMat(u, &h)
	} else {
		h.DagMulMat(u, &h)
	}
	acc.AddReconstruct(mu, s, &h)
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
