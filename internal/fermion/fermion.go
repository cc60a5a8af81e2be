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
			y = g.L.Neighbor(y, s.mu, +1)
		} else {
			y = g.L.Neighbor(y, s.mu, -1)
			m = m.Mul(g.Link(y, s.mu).Dagger())
		}
	}
	return m
}

// hopSites computes dst = diag·src - ½ Σ_mu [ (1-γ_mu) U_mu(x) src(x+mu)
// + (1+γ_mu) U†_mu(x-mu) src(x-mu) ] on one 4-D volume, through the
// spin-projected kernel in latmath (12 instead of 24 complex numbers per
// neighbour — exactly the quantity the SCU ships between nodes). dst and
// src must not overlap.
func hopSites(dst, src []latmath.Spinor, g *lattice.GaugeField, nb *lattice.Neighbors, diag complex128) {
	for idx := range dst {
		var acc latmath.Spinor
		for mu := 0; mu < lattice.Ndim; mu++ {
			up, dn := nb.Up[mu][idx], nb.Dn[mu][idx]
			acc.Hop(mu, +1, &g.U[lattice.Ndim*idx+mu], &src[up])
			acc.Hop(mu, -1, &g.U[lattice.Ndim*int(dn)+mu], &src[dn])
		}
		dst[idx].HopResult(diag, &src[idx], &acc)
	}
}

// Wilson is the naive Wilson Dirac operator
// D = (m + 4) - (1/2) Σ_mu [(1-γ_mu) U_mu(x) T_{+mu} + (1+γ_mu) U†_mu T_{-mu}].
// An operator value is not safe for concurrent use: D† works in scratch
// fields it keeps.
type Wilson struct {
	G    *lattice.GaugeField
	Mass float64

	nb       *lattice.Neighbors
	tmp, mid *lattice.FermionField // D† scratch, allocated on first use
}

// NewWilson builds the operator on gauge field g with bare mass m.
func NewWilson(g *lattice.GaugeField, mass float64) *Wilson {
	return &Wilson{G: g, Mass: mass, nb: g.L.Neighbors()}
}

// Name implements DiracOperator.
func (w *Wilson) Name() string { return "wilson" }

// Lattice implements DiracOperator.
func (w *Wilson) Lattice() lattice.Shape4 { return w.G.L }

// Apply computes dst = D src.
func (w *Wilson) Apply(dst, src *lattice.FermionField) {
	hopSites(dst.S, src.S, w.G, w.nb, complex(w.Mass+4, 0))
}

// ApplyDag computes dst = D† src via γ5-hermiticity: D† = γ5 D γ5.
func (w *Wilson) ApplyDag(dst, src *lattice.FermionField) { w.applyDag(dst, src, w.Apply) }

// applyDag is γ5 D γ5 for the operator applyD built on this Wilson term.
func (w *Wilson) applyDag(dst, src *lattice.FermionField, applyD func(dst, src *lattice.FermionField)) {
	if w.tmp == nil {
		w.tmp, w.mid = lattice.NewFermionField(w.G.L), lattice.NewFermionField(w.G.L)
	}
	ReflectGamma5(w.tmp.S, src.S, 1)
	applyD(w.mid, w.tmp)
	ReflectGamma5(dst.S, w.mid.S, 1)
}
