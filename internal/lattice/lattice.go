// Package lattice provides the space-time containers of lattice QCD:
// four-dimensional periodic lattices, SU(3) gauge fields, fermion fields,
// and the decomposition of a global lattice across the (folded,
// four-dimensional) QCDOC machine grid — "each processor becomes
// responsible for the local variables associated with a space-time
// hypercube" (§1).
package lattice

import (
	"fmt"

	"qcdoc/internal/latmath"
	"qcdoc/internal/rng"
)

// Ndim is the space-time dimensionality.
const Ndim = 4

// Shape4 is the extent of a 4-D lattice in x, y, z, t.
type Shape4 [Ndim]int

// Site is a 4-D lattice coordinate.
type Site [Ndim]int

// Volume is the number of sites.
func (s Shape4) Volume() int { return s[0] * s[1] * s[2] * s[3] }

// Valid reports whether all extents are positive.
func (s Shape4) Valid() bool {
	for _, e := range s {
		if e < 1 {
			return false
		}
	}
	return true
}

func (s Shape4) String() string {
	return fmt.Sprintf("%dx%dx%dx%d", s[0], s[1], s[2], s[3])
}

// Index converts a site to its lexicographic index (x fastest).
func (s Shape4) Index(c Site) int {
	return ((c[3]*s[2]+c[2])*s[1]+c[1])*s[0] + c[0]
}

// SiteOf inverts Index.
func (s Shape4) SiteOf(idx int) Site {
	var c Site
	c[0] = idx % s[0]
	idx /= s[0]
	c[1] = idx % s[1]
	idx /= s[1]
	c[2] = idx % s[2]
	c[3] = idx / s[2]
	return c
}

// Hop returns the site displaced by k steps along mu (periodic).
func (s Shape4) Hop(c Site, mu, k int) Site {
	n := c
	n[mu] = ((c[mu]+k)%s[mu] + s[mu]) % s[mu]
	return n
}

// Neighbors tabulates the periodic neighbours at distance k of every
// site: record idx holds the site k steps forward along mu at entry mu,
// k steps back at Ndim+mu. A site loop loads one record per site, and
// the SiteOf/Hop/Index div-mod chain runs once per table.
type Neighbors [][2 * Ndim]int32

// Neighbors builds the distance-k table for this shape.
func (s Shape4) Neighbors(k int) Neighbors {
	n := make(Neighbors, s.Volume())
	for idx := range n {
		x := s.SiteOf(idx)
		for mu := 0; mu < Ndim; mu++ {
			n[idx][mu] = int32(s.Index(s.Hop(x, mu, k)))
			n[idx][Ndim+mu] = int32(s.Index(s.Hop(x, mu, -k)))
		}
	}
	return n
}

// GaugeField holds one SU(3) link per site per direction: U[mu](x)
// connects x to x+mu.
type GaugeField struct {
	L Shape4
	U []latmath.Mat3 // len = 4*Volume, layout U[4*idx+mu]
}

// NewGaugeField allocates a cold (unit) gauge field.
func NewGaugeField(l Shape4) *GaugeField {
	if !l.Valid() {
		panic(fmt.Sprintf("lattice: invalid shape %v", l))
	}
	g := &GaugeField{L: l, U: make([]latmath.Mat3, Ndim*l.Volume())}
	for i := range g.U {
		g.U[i] = latmath.Identity3()
	}
	return g
}

// Link returns U_mu(x).
func (g *GaugeField) Link(x Site, mu int) latmath.Mat3 {
	return g.U[Ndim*g.L.Index(x)+mu]
}

// SetLink stores U_mu(x).
func (g *GaugeField) SetLink(x Site, mu int, m latmath.Mat3) {
	g.U[Ndim*g.L.Index(x)+mu] = m
}

// Randomize fills the field with Haar-ish random SU(3) links ("hot
// start"). Each link draws from its own site/direction stream, so the
// result is independent of traversal order and machine decomposition.
func (g *GaugeField) Randomize(seed uint64) {
	v := g.L.Volume()
	var st rng.Stream
	for idx := 0; idx < v; idx++ {
		for mu := 0; mu < Ndim; mu++ {
			st = rng.Of(seed, uint64(idx)*Ndim+uint64(mu))
			g.U[Ndim*idx+mu] = latmath.RandomSU3(&st)
		}
	}
}

// Plaquette returns the average plaquette: the mean over sites and
// planes of (1/3) Re tr U_mu(x) U_nu(x+mu) U_mu†(x+nu) U_nu†(x). It is 1
// on a cold configuration and ~0 on a fully random one — the first
// observable of any gauge evolution.
func (g *GaugeField) Plaquette() float64 {
	var sum float64
	v := g.L.Volume()
	for idx := 0; idx < v; idx++ {
		x := g.L.SiteOf(idx)
		for mu := 0; mu < Ndim; mu++ {
			for nu := mu + 1; nu < Ndim; nu++ {
				sum += g.PlaquetteAt(x, mu, nu)
			}
		}
	}
	return sum / (float64(v) * 6 * 3)
}

// PlaquetteAt returns Re tr of the (mu,nu) plaquette at x (un-normalized
// by color).
func (g *GaugeField) PlaquetteAt(x Site, mu, nu int) float64 {
	xmu := g.L.Hop(x, mu, +1)
	xnu := g.L.Hop(x, nu, +1)
	p := g.Link(x, mu).
		Mul(g.Link(xmu, nu)).
		Mul(g.Link(xnu, mu).Dagger()).
		Mul(g.Link(x, nu).Dagger())
	return p.ReTrace()
}

// Staple returns the sum of the six staples around U_mu(x), in the
// convention where the sum of all plaquettes containing the link equals
// Re tr [U_mu(x) · Staple(x,mu)]. It is the derivative of the Wilson
// gauge action with respect to that link, used by heatbath updates.
func (g *GaugeField) Staple(x Site, mu int) latmath.Mat3 {
	sum := latmath.Zero3()
	for nu := 0; nu < Ndim; nu++ {
		if nu == mu {
			continue
		}
		xmu := g.L.Hop(x, mu, +1)
		xnu := g.L.Hop(x, nu, +1)
		xmnu := g.L.Hop(x, nu, -1)
		xmu_mnu := g.L.Hop(xmu, nu, -1)
		// Upper staple: U_nu(x+mu) U_mu†(x+nu) U_nu†(x).
		up := g.Link(xmu, nu).Mul(g.Link(xnu, mu).Dagger()).Mul(g.Link(x, nu).Dagger())
		// Lower staple: U_nu†(x+mu-nu) U_mu†(x-nu) U_nu(x-nu).
		dn := g.Link(xmu_mnu, nu).Dagger().Mul(g.Link(xmnu, mu).Dagger()).Mul(g.Link(xmnu, nu))
		sum = sum.Add(up).Add(dn)
	}
	return sum
}

// Equal reports bitwise equality of two fields — the comparison of the
// paper's five-day reproducibility test ("the resulting QCD
// configuration be identical in all bits").
func (g *GaugeField) Equal(o *GaugeField) bool {
	if g.L != o.L || len(g.U) != len(o.U) {
		return false
	}
	for i := range g.U {
		if g.U[i] != o.U[i] {
			return false
		}
	}
	return true
}

// FermionField is a Dirac spinor per site.
type FermionField struct {
	L Shape4
	S []latmath.Spinor
}

// NewFermionField allocates a zero fermion field.
func NewFermionField(l Shape4) *FermionField {
	return &FermionField{L: l, S: make([]latmath.Spinor, l.Volume())}
}

// Gaussian fills with unit-normal noise from per-site streams.
func (f *FermionField) Gaussian(seed uint64) {
	var st rng.Stream
	for idx := range f.S {
		st = rng.Of(seed, uint64(idx))
		f.S[idx] = latmath.GaussianSpinor(&st)
	}
}

// Dot returns Σ_x f(x)† g(x).
func (f *FermionField) Dot(g *FermionField) complex128 {
	var s complex128
	for i := range f.S {
		s += f.S[i].Dot(g.S[i])
	}
	return s
}

// Norm2 returns Σ_x |f(x)|².
func (f *FermionField) Norm2() float64 {
	var s float64
	for i := range f.S {
		s += f.S[i].Norm2()
	}
	return s
}

// AXPYRange computes f += a*x in place on sites [lo, hi).
func (f *FermionField) AXPYRange(lo, hi int, a complex128, x *FermionField) {
	for i := lo; i < hi; i++ {
		f.S[i].AddScaled(a, &x.S[i])
	}
}

// ScaleRange multiplies sites [lo, hi) in place.
func (f *FermionField) ScaleRange(lo, hi int, a complex128) {
	for i := lo; i < hi; i++ {
		f.S[i].ScaleBy(a)
	}
}

// AXPY computes f += a*x in place.
func (f *FermionField) AXPY(a complex128, x *FermionField) { f.AXPYRange(0, len(f.S), a, x) }

// Scale multiplies in place.
func (f *FermionField) Scale(a complex128) { f.ScaleRange(0, len(f.S), a) }

// Copy copies x into f.
func (f *FermionField) Copy(x *FermionField) { copy(f.S, x.S) }

// ColorField is a staggered fermion field: one color vector per site.
type ColorField struct {
	L Shape4
	V []latmath.Vec3
}

// NewColorField allocates a zero color field.
func NewColorField(l Shape4) *ColorField {
	return &ColorField{L: l, V: make([]latmath.Vec3, l.Volume())}
}

// Gaussian fills with unit-normal noise.
func (f *ColorField) Gaussian(seed uint64) {
	var st rng.Stream
	for idx := range f.V {
		st = rng.Of(seed, uint64(idx))
		f.V[idx] = latmath.GaussianVec3(&st)
	}
}

// Dot returns Σ_x f(x)† g(x).
func (f *ColorField) Dot(g *ColorField) complex128 {
	var s complex128
	for i := range f.V {
		s += f.V[i].Dot(g.V[i])
	}
	return s
}

// Norm2 returns Σ_x |f(x)|².
func (f *ColorField) Norm2() float64 {
	var s float64
	for i := range f.V {
		s += f.V[i].Norm2()
	}
	return s
}

// AXPYRange computes f += a*x in place on sites [lo, hi).
func (f *ColorField) AXPYRange(lo, hi int, a complex128, x *ColorField) {
	for i := lo; i < hi; i++ {
		f.V[i].AddScaled(a, &x.V[i])
	}
}

// ScaleRange multiplies sites [lo, hi) in place.
func (f *ColorField) ScaleRange(lo, hi int, a complex128) {
	for i := lo; i < hi; i++ {
		f.V[i].ScaleBy(a)
	}
}

// AXPY computes f += a*x in place.
func (f *ColorField) AXPY(a complex128, x *ColorField) { f.AXPYRange(0, len(f.V), a, x) }

// Scale multiplies in place.
func (f *ColorField) Scale(a complex128) { f.ScaleRange(0, len(f.V), a) }

// Copy copies x into f.
func (f *ColorField) Copy(x *ColorField) { copy(f.V, x.V) }
