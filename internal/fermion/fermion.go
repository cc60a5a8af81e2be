// Package fermion implements the Dirac operator discretizations the
// paper benchmarks (§4): naive Wilson fermions, clover-improved Wilson
// fermions, ASQTAD staggered fermions, and the five-dimensional
// domain-wall fermions targeted for QCDOC production running. Each
// operator has a functional reference implementation (used for solver
// correctness and the multi-node validation tests) and a per-site cost
// descriptor feeding the machine performance model (cost.go).
package fermion

import (
	"qcdoc/internal/latmath"
	"qcdoc/internal/lattice"
	"qcdoc/internal/team"
)

// DiracOperator is a linear operator on Dirac spinor fields.
type DiracOperator interface {
	Name() string
	Lattice() lattice.Shape4
	// Apply computes dst = D src.
	Apply(dst, src *lattice.FermionField)
	// ApplyDag computes dst = D† src.
	ApplyDag(dst, src *lattice.FermionField)
}

// StaggeredOperator is a linear operator on single-spin color fields.
type StaggeredOperator interface {
	Name() string
	Lattice() lattice.Shape4
	Apply(dst, src *lattice.ColorField)
	ApplyDag(dst, src *lattice.ColorField)
}

// pathStep is one hop of a Wilson line: direction mu with sign ±1.
type pathStep struct {
	mu  int
	dir int
}

// pathProduct multiplies the gauge links along a path of hops starting
// at x: a forward hop contributes U_mu(y) and advances y; a backward hop
// retreats y and contributes U†_mu(y). Used to build plaquette leaves,
// staples and long links.
func pathProduct(g *lattice.GaugeField, x lattice.Site, steps []pathStep) latmath.Mat3 {
	m := latmath.Identity3()
	y := x
	for _, s := range steps {
		if s.dir > 0 {
			m = m.Mul(g.Link(y, s.mu))
			y = g.L.Hop(y, s.mu, +1)
		} else {
			y = g.L.Hop(y, s.mu, -1)
			m = m.Mul(g.Link(y, s.mu).Dagger())
		}
	}
	return m
}

// HopKernel computes dst = diag·src - ½ Σ_mu [ (1-s γ_mu) U_mu(x) src(x+mu)
// + (1+s γ_mu) U†_mu(x-mu) src(x-mu) ] on Ls slices of one 4-D volume
// sharing the gauge field, through the spin-projected kernel in latmath
// (12 instead of 24 complex numbers per neighbour — exactly the quantity
// the SCU ships between nodes). The projector sign s is +1 for the
// Wilson hop of D and -1 for that of D†: γ5 (1 - γ_mu) γ5 = 1 + γ_mu, so
// γ5 D γ5 is the same hop with the projectors swapped. Its range is the
// Ls·V4 sites of dst, slice-major; dst and src must not overlap. It is
// the site loop of the reference operators and, with Ghosts, of the
// distributed ones.
type HopKernel struct {
	G  *lattice.GaugeField
	Nb lattice.Neighbors
	// Ghosts serves the hops that leave a node's volume: there Nb holds
	// ^slot in place of a site index. Nil on a periodic volume.
	Ghosts Ghosts

	dst, src []latmath.Spinor
	diag     complex128
	s        int
}

// Run sets the arguments and runs the kernel over both fields on t.
func (k *HopKernel) Run(t *team.Team, dst, src []latmath.Spinor, diag complex128, s int) {
	k.dst, k.src, k.diag, k.s = dst, src, diag, s
	t.Run(len(dst), k)
}

// Ghosts sets h to the projected half spinor the (mu, end) neighbour
// packed for face slot slot of slice s; the low-end (end 0) sender has
// already applied its link.
type Ghosts interface {
	Half(h *latmath.HalfSpinor, mu, end, s, slot int)
}

func (k *HopKernel) Range(lo, hi int) {
	v4 := k.G.L.Volume()
	s := k.s
	idx := lo % v4
	for i := lo; i < hi; i++ {
		src := k.src[i-idx : i-idx+v4] // the slice site i is on
		// Each hop's half spinor lives in the upper half of dst[i]: this
		// chunk's own memory, written last, so the steps need no scratch
		// (none to zero, none that escapes to the ghost reader).
		h := (*latmath.HalfSpinor)(k.dst[i][:2])
		var acc latmath.Spinor
		nb := &k.Nb[idx]
		for mu := 0; mu < lattice.Ndim; mu++ {
			// +mu term (1-sγ)U_mu(x)ψ(x+mu); off the high face ψ(x+mu) is
			// a ghost, already projected, and the link is ours.
			if up := nb[mu]; up >= 0 {
				h.Project(mu, s, &src[up])
			} else {
				k.Ghosts.Half(h, mu, 1, (i-idx)/v4, int(^up))
			}
			h.MulMat(&k.G.U[lattice.Ndim*idx+mu], h)
			acc.AddReconstruct(mu, s, h)
			// -mu term (1+sγ)U†_mu(x-mu)ψ(x-mu); the low-end sender of a
			// ghost has applied its link.
			if dn := nb[lattice.Ndim+mu]; dn >= 0 {
				h.Project(mu, -s, &src[dn])
				h.DagMulMat(&k.G.U[lattice.Ndim*int(dn)+mu], h)
			} else {
				k.Ghosts.Half(h, mu, 0, (i-idx)/v4, int(^dn))
			}
			acc.AddReconstruct(mu, -s, h)
		}
		k.dst[i].HopResult(k.diag, &src[idx], &acc)
		if idx++; idx == v4 {
			idx = 0
		}
	}
}

// Wilson is the naive Wilson Dirac operator
// D = (m + 4) - (1/2) Σ_mu [(1-γ_mu) U_mu(x) T_{+mu} + (1+γ_mu) U†_mu T_{-mu}].
// An operator value is not safe for concurrent use: its site loops run
// as kernels it keeps.
type Wilson struct {
	G    *lattice.GaugeField
	Mass float64
	Team *team.Team // forks the site loops over the host's cores; nil runs them on the caller

	hop HopKernel
}

// NewWilson builds the operator on gauge field g with bare mass m.
func NewWilson(g *lattice.GaugeField, mass float64) *Wilson {
	return &Wilson{G: g, Mass: mass, hop: HopKernel{G: g, Nb: g.L.Neighbors(1)}}
}

// Name implements DiracOperator.
func (w *Wilson) Name() string { return "wilson" }

// Lattice implements DiracOperator.
func (w *Wilson) Lattice() lattice.Shape4 { return w.G.L }

// Apply computes dst = D src.
func (w *Wilson) Apply(dst, src *lattice.FermionField) {
	w.hop.Run(w.Team, dst.S, src.S, complex(w.Mass+4, 0), +1)
}

// ApplyDag computes dst = D† src = γ5 D γ5 src: the hop with the
// projector signs swapped.
func (w *Wilson) ApplyDag(dst, src *lattice.FermionField) {
	w.hop.Run(w.Team, dst.S, src.S, complex(w.Mass+4, 0), -1)
}
