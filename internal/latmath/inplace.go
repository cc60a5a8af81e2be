package latmath

// In-place forms of the site-local arithmetic around the hop kernel: the
// BLAS-1 updates of a solver and the chiral projectors of the
// domain-wall fifth dimension, working through pointers on field memory
// where the by-value methods (Spinor.AXPY, Mat4.ApplySpin, ...) copy a
// spinor in and out per site. As in hop.go the floating-point expression
// of every component is the by-value one's — y + a x, a y, 0 + c x, full
// complex multiplies, of which a literal ±1 folds only the exact x·±1 —
// and a bit oracle holds the two together.

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
	acc[0].subChiral(plus, 1, &psi[0])
	acc[1].subChiral(plus, 1, &psi[1])
	acc[2].subChiral(plus, -1, &psi[2])
	acc[3].subChiral(plus, -1, &psi[3])
}

// subChiral and addScaledChiral are one spin row of SubChiral and
// AddScaledChiral, with c that row's literal γ5 entry.
func (v *Vec3) subChiral(plus bool, c complex128, x *Vec3) {
	for k := range v {
		v[k] = v[k] - chiral(plus, c, x[k])
	}
}

// AddScaledChiral sets acc += m P ψ: the hop across the walls, which
// re-enters with the mass factor.
func (acc *Spinor) AddScaledChiral(m complex128, plus bool, psi *Spinor) {
	acc[0].addScaledChiral(m, plus, 1, &psi[0])
	acc[1].addScaledChiral(m, plus, 1, &psi[1])
	acc[2].addScaledChiral(m, plus, -1, &psi[2])
	acc[3].addScaledChiral(m, plus, -1, &psi[3])
}

func (v *Vec3) addScaledChiral(m complex128, plus bool, c complex128, x *Vec3) {
	for k := range v {
		v[k] = v[k] + m*chiral(plus, c, x[k])
	}
}
