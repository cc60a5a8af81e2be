package fermion

import (
	"fmt"

	"qcdoc/internal/latmath"
	"qcdoc/internal/lattice"
)

// Field5 is a five-dimensional domain-wall fermion field: Ls slices of
// 4-D spinor fields, layout S[s*V4 + idx4].
type Field5 struct {
	L  lattice.Shape4
	Ls int
	S  []latmath.Spinor
}

// NewField5 allocates a zero 5-D field.
func NewField5(l lattice.Shape4, ls int) *Field5 {
	if ls < 1 {
		panic(fmt.Sprintf("fermion: invalid Ls %d", ls))
	}
	return &Field5{L: l, Ls: ls, S: make([]latmath.Spinor, ls*l.Volume())}
}

// At returns a pointer to ψ(x=idx4, s).
func (f *Field5) At(s, idx4 int) *latmath.Spinor { return &f.S[s*f.L.Volume()+idx4] }

// Gaussian fills with unit-normal noise, per (s, site) streams.
func (f *Field5) Gaussian(seed uint64) {
	v := f.L.Volume()
	for s := 0; s < f.Ls; s++ {
		slice := &lattice.FermionField{L: f.L, S: f.S[s*v : (s+1)*v]}
		slice.Gaussian(seed + uint64(s)*0x1000003)
	}
}

// Dot returns the full 5-D inner product.
func (f *Field5) Dot(g *Field5) complex128 {
	var sum complex128
	for i := range f.S {
		sum += f.S[i].Dot(g.S[i])
	}
	return sum
}

// Norm2 returns |f|².
func (f *Field5) Norm2() float64 {
	var sum float64
	for i := range f.S {
		sum += f.S[i].Norm2()
	}
	return sum
}

// AXPY computes f += a x.
func (f *Field5) AXPY(a complex128, x *Field5) {
	for i := range f.S {
		f.S[i] = f.S[i].AXPY(a, x.S[i])
	}
}

// Scale multiplies in place.
func (f *Field5) Scale(a complex128) {
	for i := range f.S {
		f.S[i] = f.S[i].Scale(a)
	}
}

// Copy copies x into f.
func (f *Field5) Copy(x *Field5) { copy(f.S, x.S) }

// Clone deep-copies.
func (f *Field5) Clone() *Field5 {
	c := NewField5(f.L, f.Ls)
	copy(c.S, f.S)
	return c
}

// DWF is the Shamir domain-wall operator (§4: "a newer discretization
// ... domain wall fermions ... naturally five-dimensional"):
//
//	(D ψ)(x,s) = [D_W(-M5) + 1] ψ(x,s) - P_- ψ(x,s+1) - P_+ ψ(x,s-1)
//
// with chiral projectors P_± = (1 ± γ5)/2 and the physical-mass boundary
// condition: the s-hops off the ends of the fifth dimension re-enter
// with a factor -m_f.
type DWF struct {
	G  *lattice.GaugeField
	M5 float64 // domain-wall height, typically ~1.8
	Mf float64 // physical quark mass coupling the walls
	Ls int
}

// NewDWF builds the operator.
func NewDWF(g *lattice.GaugeField, m5, mf float64, ls int) *DWF {
	return &DWF{G: g, M5: m5, Mf: mf, Ls: ls}
}

// Name identifies the operator.
func (d *DWF) Name() string { return "dwf" }

// Lattice returns the 4-D lattice shape.
func (d *DWF) Lattice() lattice.Shape4 { return d.G.L }

// projPlus applies P_+ = (1+γ5)/2.
func projPlus(s latmath.Spinor) latmath.Spinor {
	g5 := latmath.Gamma5.ApplySpin(s)
	return s.Add(g5).Scale(0.5)
}

// projMinus applies P_- = (1-γ5)/2.
func projMinus(s latmath.Spinor) latmath.Spinor {
	g5 := latmath.Gamma5.ApplySpin(s)
	return s.Sub(g5).Scale(0.5)
}

// Apply computes dst = D src.
func (d *DWF) Apply(dst, src *Field5) {
	l := d.G.L
	v := l.Volume()
	diag := complex(-d.M5+4+1, 0) // Wilson diagonal at mass -M5, plus the +1 of D_perp
	for s := 0; s < d.Ls; s++ {
		for idx := 0; idx < v; idx++ {
			x := l.SiteOf(idx)
			acc := hopTerm4D5(d.G, src, s, x, idx)
			out := src.S[s*v+idx].Scale(diag).Sub(acc.Scale(0.5))
			// Fifth-dimension hops.
			up := s + 1
			dn := s - 1
			if up < d.Ls {
				out = out.Sub(projMinus(src.S[up*v+idx]))
			} else {
				out = out.AXPY(complex(d.Mf, 0), projMinus(src.S[0*v+idx]))
			}
			if dn >= 0 {
				out = out.Sub(projPlus(src.S[dn*v+idx]))
			} else {
				out = out.AXPY(complex(d.Mf, 0), projPlus(src.S[(d.Ls-1)*v+idx]))
			}
			dst.S[s*v+idx] = out
		}
	}
}

// hopTerm4D5 is hopTerm for one s-slice of a 5-D field: the gauge links
// are s-independent, which is the locality the DWF kernel exploits for
// its high efficiency (the same links serve all Ls slices).
func hopTerm4D5(g *lattice.GaugeField, src *Field5, s int, x lattice.Site, idx int) latmath.Spinor {
	l := g.L
	v := l.Volume()
	var acc latmath.Spinor
	for mu := 0; mu < lattice.Ndim; mu++ {
		xp := l.Neighbor(x, mu, +1)
		hp := latmath.Project(mu, +1, src.S[s*v+l.Index(xp)]).MulMat(g.Link(x, mu))
		acc = acc.Add(latmath.Reconstruct(mu, +1, hp))
		xm := l.Neighbor(x, mu, -1)
		hm := latmath.Project(mu, -1, src.S[s*v+l.Index(xm)]).DagMulMat(g.Link(xm, mu))
		acc = acc.Add(latmath.Reconstruct(mu, -1, hm))
	}
	_ = idx
	return acc
}

// ApplyDag computes dst = D† src using the domain-wall relation
// D† = R γ5 D γ5 R, where R reflects the fifth dimension
// (s -> Ls-1-s).
func (d *DWF) ApplyDag(dst, src *Field5) {
	tmp := d.reflectGamma5(src)
	mid := NewField5(d.G.L, d.Ls)
	d.Apply(mid, tmp)
	out := d.reflectGamma5(mid)
	copy(dst.S, out.S)
}

// reflectGamma5 returns R γ5 f: γ5 in spin, reflection in s.
func (d *DWF) reflectGamma5(f *Field5) *Field5 {
	v := d.G.L.Volume()
	out := NewField5(d.G.L, d.Ls)
	for s := 0; s < d.Ls; s++ {
		rs := d.Ls - 1 - s
		for idx := 0; idx < v; idx++ {
			out.S[s*v+idx] = latmath.Gamma5.ApplySpin(f.S[rs*v+idx])
		}
	}
	return out
}
