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

	nb       *lattice.Neighbors
	tmp, mid *Field5 // D† scratch, allocated on first use
}

// NewDWF builds the operator.
func NewDWF(g *lattice.GaugeField, m5, mf float64, ls int) *DWF {
	return &DWF{G: g, M5: m5, Mf: mf, Ls: ls, nb: g.L.Neighbors()}
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

// Apply computes dst = D src: the 4-D Wilson hop on every s-slice — the
// gauge links are s-independent, which is the locality the DWF kernel
// exploits for its high efficiency (the same links serve all Ls slices)
// — then the fifth-dimension hops.
func (d *DWF) Apply(dst, src *Field5) {
	v := d.G.L.Volume()
	diag := complex(-d.M5+4+1, 0) // Wilson diagonal at mass -M5, plus the +1 of D_perp
	for s := 0; s < d.Ls; s++ {
		hopSites(dst.S[s*v:(s+1)*v], src.S[s*v:(s+1)*v], d.G, d.nb, diag)
	}
	AddFifthDimHops(dst.S, src.S, v, d.Ls, d.Mf)
}

// AddFifthDimHops adds the site-local fifth-dimension terms of the
// domain-wall operator, -P_- src(s+1) - P_+ src(s-1) with the -m_f
// boundary condition, to dst; both are Ls slices of v4 spinors. Shared
// with the distributed operator, whose fifth dimension stays node-local.
func AddFifthDimHops(dst, src []latmath.Spinor, v4, ls int, mf float64) {
	m := complex(mf, 0)
	for s := 0; s < ls; s++ {
		for idx := 0; idx < v4; idx++ {
			out := dst[s*v4+idx]
			if up := s + 1; up < ls {
				out = out.Sub(projMinus(src[up*v4+idx]))
			} else {
				out = out.AXPY(m, projMinus(src[idx]))
			}
			if dn := s - 1; dn >= 0 {
				out = out.Sub(projPlus(src[dn*v4+idx]))
			} else {
				out = out.AXPY(m, projPlus(src[(ls-1)*v4+idx]))
			}
			dst[s*v4+idx] = out
		}
	}
}

// ApplyDag computes dst = D† src using the domain-wall relation
// D† = R γ5 D γ5 R, where R reflects the fifth dimension
// (s -> Ls-1-s).
func (d *DWF) ApplyDag(dst, src *Field5) {
	if d.tmp == nil {
		d.tmp, d.mid = NewField5(d.G.L, d.Ls), NewField5(d.G.L, d.Ls)
	}
	ReflectGamma5(d.tmp.S, src.S, d.Ls)
	d.Apply(d.mid, d.tmp)
	ReflectGamma5(dst.S, d.mid.S, d.Ls)
}

// ReflectGamma5 computes dst = R γ5 src on Ls slices: γ5 in spin,
// reflection s -> Ls-1-s in the fifth dimension (plain γ5 at Ls = 1).
func ReflectGamma5(dst, src []latmath.Spinor, ls int) {
	v := len(src) / ls
	for s := 0; s < ls; s++ {
		to, from := dst[s*v:(s+1)*v], src[(ls-1-s)*v:(ls-s)*v]
		for i := range to {
			to[i] = latmath.Gamma5.ApplySpin(from[i])
		}
	}
}
