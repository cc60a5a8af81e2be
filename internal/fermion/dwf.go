package fermion

import (
	"fmt"

	"qcdoc/internal/latmath"
	"qcdoc/internal/lattice"
	"qcdoc/internal/team"
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

// Gaussian fills with unit-normal noise, per (s, site) streams.
func (f *Field5) Gaussian(seed uint64) {
	v := f.L.Volume()
	for s := 0; s < f.Ls; s++ {
		slice := &lattice.FermionField{L: f.L, S: f.S[s*v : (s+1)*v]}
		slice.Gaussian(seed + uint64(s)*0x1000003)
	}
}

// flat is f as one spinor field of Ls·V4 sites: the 5-D BLAS is the
// 4-D field's, in the same site order.
func (f *Field5) flat() *lattice.FermionField { return &lattice.FermionField{S: f.S} }

// Dot returns the full 5-D inner product.
func (f *Field5) Dot(g *Field5) complex128 { return f.flat().Dot(g.flat()) }

// Norm2 returns |f|².
func (f *Field5) Norm2() float64 { return f.flat().Norm2() }

// AXPYRange computes f += a x in place on 5-D sites [lo, hi).
func (f *Field5) AXPYRange(lo, hi int, a complex128, x *Field5) {
	f.flat().AXPYRange(lo, hi, a, x.flat())
}

// ScaleRange multiplies 5-D sites [lo, hi) in place.
func (f *Field5) ScaleRange(lo, hi int, a complex128) { f.flat().ScaleRange(lo, hi, a) }

// AXPY computes f += a x.
func (f *Field5) AXPY(a complex128, x *Field5) { f.flat().AXPY(a, x.flat()) }

// Scale multiplies in place.
func (f *Field5) Scale(a complex128) { f.flat().Scale(a) }

// Copy copies x into f.
func (f *Field5) Copy(x *Field5) { copy(f.S, x.S) }

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

	Team *team.Team // forks the site loops over the host's cores; nil runs them on the caller

	hop   HopKernel
	fifth FifthDimKernel
}

// NewDWF builds the operator.
func NewDWF(g *lattice.GaugeField, m5, mf float64, ls int) *DWF {
	return &DWF{G: g, M5: m5, Mf: mf, Ls: ls, hop: HopKernel{G: g, Nb: g.L.Neighbors(1)}}
}

// Name identifies the operator.
func (d *DWF) Name() string { return "dwf" }

// Lattice returns the 4-D lattice shape.
func (d *DWF) Lattice() lattice.Shape4 { return d.G.L }

// Apply computes dst = D src: the 4-D Wilson hop on every s-slice — the
// gauge links are s-independent, which is the locality the DWF kernel
// exploits for its high efficiency (the same links serve all Ls slices)
// — then the fifth-dimension hops.
func (d *DWF) Apply(dst, src *Field5) {
	// Wilson diagonal at mass -M5, plus the +1 of D_perp.
	d.hop.Run(d.Team, dst.S, src.S, complex(-d.M5+4+1, 0), +1)
	d.fifth.Run(d.Team, dst.S, src.S, d.Ls, d.Mf, +1)
}

// ApplyDag computes dst = D† src = R γ5 D γ5 R src, R reflecting the
// fifth dimension (s -> Ls-1-s): the Wilson hop with the projector signs
// swapped, and the fifth-dimension hops with their direction reversed.
func (d *DWF) ApplyDag(dst, src *Field5) {
	d.hop.Run(d.Team, dst.S, src.S, complex(-d.M5+4+1, 0), -1)
	d.fifth.Run(d.Team, dst.S, src.S, d.Ls, d.Mf, -1)
}

// FifthDimKernel adds the site-local fifth-dimension terms of the
// domain-wall operator to dst: -P_- src(s+t) - P_+ src(s-t), in that
// order, with the -m_f boundary condition on the hops off either end.
// The step t is +1 for D and -1 for D† (R γ5 P_∓ γ5 R hops the other
// way). Both fields are Ls slices of 4-D spinors and the range is their
// Ls·V4 sites. Shared with the distributed operator, whose fifth
// dimension stays node-local.
type FifthDimKernel struct {
	dst, src []latmath.Spinor
	step     int // ±V4: the site offset of the P_- hop
	m        complex128
}

// Run sets the arguments and runs the kernel over both fields on t; s
// is the step direction.
func (k *FifthDimKernel) Run(t *team.Team, dst, src []latmath.Spinor, ls int, mf float64, s int) {
	k.dst, k.src, k.step, k.m = dst, src, s*(len(src)/ls), complex(mf, 0)
	t.Run(len(dst), k)
}

func (k *FifthDimKernel) Range(lo, hi int) {
	n := len(k.src)
	for i := lo; i < hi; i++ {
		out := &k.dst[i]
		if fwd := i + k.step; uint(fwd) < uint(n) {
			out.SubChiral(false, &k.src[fwd])
		} else {
			out.AddScaledChiral(k.m, false, &k.src[(fwd+n)%n])
		}
		if back := i - k.step; uint(back) < uint(n) {
			out.SubChiral(true, &k.src[back])
		} else {
			out.AddScaledChiral(k.m, true, &k.src[(back+n)%n])
		}
	}
}
