package latmath

// In-place forms of the site-local arithmetic around the hop kernel: the
// BLAS-1 updates of a solver, γ5, and the chiral projectors of the
// domain-wall fifth dimension, working through pointers on field memory
// where the by-value methods (Spinor.AXPY, Mat4.ApplySpin, ...) copy a
// spinor in and out per site. As in hop.go the floating-point expression
// of every component is the by-value one's — y + a x, a y, 0 + c x, full
// complex multiplies — and a bit oracle holds the two together.

// AddScaled sets y += a x.
func (y *Vec3) AddScaled(a complex128, x *Vec3) {
	for k := range y {
		y[k] = y[k] + a*x[k]
	}
}

// ScaleBy sets y = a y.
func (y *Vec3) ScaleBy(a complex128) {
	for k := range y {
		y[k] = a * y[k]
	}
}

// AddScaled sets y += a x.
func (y *Spinor) AddScaled(a complex128, x *Spinor) {
	for s := range y {
		y[s].AddScaled(a, &x[s])
	}
}

// ScaleBy sets y = a y.
func (y *Spinor) ScaleBy(a complex128) {
	for s := range y {
		y[s].ScaleBy(a)
	}
}

// AddVec sets y += x.
func (y *Vec3) AddVec(x *Vec3) {
	for k := range y {
		y[k] = y[k] + x[k]
	}
}

// AddSpinor sets y += x.
func (y *Spinor) AddSpinor(x *Spinor) {
	for s := range y {
		y[s].AddVec(&x[s])
	}
}

// gamma5 is the diagonal of Gamma5, all of it in the chiral basis; in
// any other the bit oracle fails.
var gamma5 = [4]complex128{Gamma5[0][0], Gamma5[1][1], Gamma5[2][2], Gamma5[3][3]}

// Gamma5 sets dst = γ5 src, component for component what
// Gamma5.ApplySpin computes: 0 + c ψ_a with c the diagonal entry.
func (dst *Spinor) Gamma5(src *Spinor) {
	for s := range dst {
		c := gamma5[s]
		for k := range dst[s] {
			dst[s][k] = 0 + c*src[s][k]
		}
	}
}

// chiral is one component of P_± x = ½ (x ± γ5 x), c being γ5's entry.
func chiral(plus bool, c, x complex128) complex128 {
	g := 0 + c*x
	if plus {
		return 0.5 * (x + g)
	}
	return 0.5 * (x - g)
}

// SubChiral sets acc -= P ψ with P = ½(1 + γ5) if plus, else ½(1 - γ5):
// a fifth-dimension hop of the domain-wall operator.
func (acc *Spinor) SubChiral(plus bool, psi *Spinor) {
	for s := range acc {
		c := gamma5[s]
		for k := range acc[s] {
			acc[s][k] = acc[s][k] - chiral(plus, c, psi[s][k])
		}
	}
}

// AddScaledChiral sets acc += m P ψ: the hop across the walls, which
// re-enters with the mass factor.
func (acc *Spinor) AddScaledChiral(m complex128, plus bool, psi *Spinor) {
	for s := range acc {
		c := gamma5[s]
		for k := range acc[s] {
			acc[s][k] = acc[s][k] + m*chiral(plus, c, psi[s][k])
		}
	}
}
