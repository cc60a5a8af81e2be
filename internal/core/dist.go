package core

import (
	"qcdoc/internal/fermion"
	"qcdoc/internal/latmath"
	"qcdoc/internal/lattice"
	"qcdoc/internal/node"
	"qcdoc/internal/qmp"
)

// wilsonHop is the distributed 4-D Wilson hopping term on Ls slices of
// spinors sharing one gauge field: the kernel of the Wilson and clover
// operators (Ls = 1) and of the domain-wall operator, whose fifth
// dimension stays node-local. Boundary spin-projected half spinors
// travel through the SCU as in the hand-tuned production code: the low
// face is projected with (1-γ_mu) and sent backward (the receiver
// applies its own gauge link); the high face is projected with (1+γ_mu),
// multiplied by U†, and sent forward (the sender owns that link). Twelve
// complex numbers per face site per slice per direction — exactly the
// cost model's comm volume. The gauge field is read once for all slices,
// which is the data reuse behind the DWF kernel's high efficiency (§4).
type wilsonHop struct {
	halo
	local lattice.Shape4
	G     *lattice.GaugeField // the node's sub-volume of the configuration
	Ls    int

	faces [lattice.Ndim][2][]int // face site lists: the slot order
}

func newWilsonHop(ctx *node.Ctx, comm *qmp.Comm, dec lattice.Decomp, gauge *lattice.GaugeField, kind fermion.OpKind, ls int, prec fermion.Precision) wilsonHop {
	sites := dec.LocalVolume() * ls
	level := fermion.WorkingSetLevel(kind, prec, sites)
	cost := fermion.SiteCost(kind, prec, level)
	if kind == fermion.DWFKind {
		cost = fermion.DWFSiteCost(prec, level, ls)
	}
	w := wilsonHop{
		halo:  newHalo(ctx, comm, dec, ls*latmath.HalfSpinorWords, cost.Scale(float64(sites))),
		local: dec.Local,
		G:     ScatterGauge(gauge, dec, GridCoord(comm.Coord())),
		Ls:    ls,
	}
	for mu := 0; mu < lattice.Ndim; mu++ {
		if w.split[mu] {
			w.faces[mu][0] = lattice.FaceSites(dec.Local, mu, 0)
			w.faces[mu][1] = lattice.FaceSites(dec.Local, mu, 1)
		}
	}
	return w
}

// hop computes dst = diag·src - ½ Σ_mu [(1-γ_mu)U_mu(x)src(x+mu) +
// (1+γ_mu)U†_mu(x-mu)src(x-mu)] on every slice, with halo exchange over
// the machine.
func (w *wilsonHop) hop(dst, src []latmath.Spinor, diag complex128) {
	l := w.local
	v4 := l.Volume()
	for mu := 0; mu < lattice.Ndim; mu++ {
		if !w.split[mu] {
			continue
		}
		fv := len(w.faces[mu][0])
		for s := 0; s < w.Ls; s++ {
			for i, idx := range w.faces[mu][0] {
				w.putHalf(mu, 0, s*fv+i, latmath.Project(mu, +1, src[s*v4+idx]))
			}
			for i, idx := range w.faces[mu][1] {
				link := w.G.Link(l.SiteOf(idx), mu)
				w.putHalf(mu, 1, s*fv+i, latmath.Project(mu, -1, src[s*v4+idx]).DagMulMat(link))
			}
		}
	}
	w.exchange()
	for s := 0; s < w.Ls; s++ {
		w.hopSlice(dst[s*v4:(s+1)*v4], src[s*v4:(s+1)*v4], s, diag)
	}
}

// hopSlice is hop's site loop on fifth-dimension slice s, after the
// exchange.
func (w *wilsonHop) hopSlice(dst, src []latmath.Spinor, s int, diag complex128) {
	l := w.local
	for idx := range dst {
		x := l.SiteOf(idx)
		var acc latmath.Spinor
		for mu := 0; mu < lattice.Ndim; mu++ {
			// +mu term (1-γ)U_mu(x)ψ(x+mu); off the high face ψ(x+mu) is a
			// ghost, already projected, and the link is ours.
			if w.split[mu] && x[mu] == l[mu]-1 {
				h := w.ghost(mu, 1, s, x).MulMat(w.G.Link(x, mu))
				acc = acc.Add(latmath.Reconstruct(mu, +1, h))
			} else {
				xp := l.Neighbor(x, mu, +1)
				h := latmath.Project(mu, +1, src[l.Index(xp)]).MulMat(w.G.Link(x, mu))
				acc = acc.Add(latmath.Reconstruct(mu, +1, h))
			}
			// -mu term (1+γ)U†_mu(x-mu)ψ(x-mu); off the low face the sender
			// already applied its link.
			if w.split[mu] && x[mu] == 0 {
				acc = acc.Add(latmath.Reconstruct(mu, -1, w.ghost(mu, 0, s, x)))
			} else {
				xm := l.Neighbor(x, mu, -1)
				h := latmath.Project(mu, -1, src[l.Index(xm)]).DagMulMat(w.G.Link(xm, mu))
				acc = acc.Add(latmath.Reconstruct(mu, -1, h))
			}
		}
		dst[idx] = src[idx].Scale(diag).Sub(acc.Scale(0.5))
	}
}

// ghost is the half spinor the (mu, end) neighbour packed for our face
// site x on slice s.
func (w *wilsonHop) ghost(mu, end, s int, x lattice.Site) latmath.HalfSpinor {
	return w.half(mu, end, s*len(w.faces[mu][end])+faceSlot(w.local, x, mu))
}

// applyDag computes dst = D† src = R γ5 D γ5 R src for the operator D
// built on this hop; R reflects the fifth dimension (the identity at
// Ls = 1).
func (w *wilsonHop) applyDag(dst, src []latmath.Spinor, applyD func(dst, src []latmath.Spinor)) {
	tmp := make([]latmath.Spinor, len(src))
	mid := make([]latmath.Spinor, len(src))
	w.reflectGamma5(tmp, src)
	applyD(mid, tmp)
	w.reflectGamma5(dst, mid)
}

func (w *wilsonHop) reflectGamma5(dst, src []latmath.Spinor) {
	v4 := w.local.Volume()
	for s := 0; s < w.Ls; s++ {
		to, from := dst[s*v4:(s+1)*v4], src[(w.Ls-1-s)*v4:(w.Ls-s)*v4]
		for i := range to {
			to[i] = latmath.Gamma5.ApplySpin(from[i])
		}
	}
}

// DistWilson is the distributed Wilson Dirac operator running on one
// node of the machine and, with a clover term, the clover-improved one.
// The term is precomputed on the full configuration when the job is set
// up (as production codes do once per configuration) and scattered to
// the nodes; the per-iteration work — the benchmarked part — runs
// entirely on-machine.
type DistWilson struct {
	wilsonHop
	Mass float64
	term [][4][4]latmath.Mat3 // site-local clover term; nil for plain Wilson
}

// NewDistWilson builds the operator on one node from the global gauge
// field. clover, when non-nil, must be the clover operator constructed
// on that field.
func NewDistWilson(ctx *node.Ctx, comm *qmp.Comm, dec lattice.Decomp, gauge *lattice.GaugeField, clover *fermion.Clover, mass float64, prec fermion.Precision) *DistWilson {
	d := &DistWilson{Mass: mass}
	kind := fermion.WilsonKind
	if clover != nil {
		kind = fermion.CloverKind
		d.term = make([][4][4]latmath.Mat3, dec.LocalVolume())
		forEachSite(dec, GridCoord(comm.Coord()), func(l, g int) { d.term[l] = clover.TermAt(g) })
	}
	d.wilsonHop = newWilsonHop(ctx, comm, dec, gauge, kind, 1, prec)
	return d
}

// Apply computes dst = D src.
func (d *DistWilson) Apply(dst, src *lattice.FermionField) { d.apply(dst.S, src.S) }

func (d *DistWilson) apply(dst, src []latmath.Spinor) {
	d.hop(dst, src, complex(d.Mass+4, 0))
	for idx := range d.term {
		var extra latmath.Spinor
		for a := 0; a < 4; a++ {
			for b := 0; b < 4; b++ {
				m := &d.term[idx][a][b]
				if *m == latmath.Zero3() {
					continue
				}
				extra[a] = extra[a].Add(m.MulVec(src[idx][b]))
			}
		}
		dst[idx] = dst[idx].Add(extra)
	}
}

// ApplyDag computes dst = D† src = γ5 D γ5 src.
func (d *DistWilson) ApplyDag(dst, src *lattice.FermionField) { d.applyDag(dst.S, src.S, d.apply) }

// DistDWF is the distributed domain-wall operator: the 4-D Wilson hop on
// each of the Ls fifth-dimension slices plus the node-local fifth-
// dimension hops.
type DistDWF struct {
	wilsonHop
	M5, Mf float64
}

// NewDistDWF builds the operator on one node from the global gauge
// field.
func NewDistDWF(ctx *node.Ctx, comm *qmp.Comm, dec lattice.Decomp, gauge *lattice.GaugeField, m5, mf float64, ls int, prec fermion.Precision) *DistDWF {
	return &DistDWF{wilsonHop: newWilsonHop(ctx, comm, dec, gauge, fermion.DWFKind, ls, prec), M5: m5, Mf: mf}
}

// Apply computes dst = D src.
func (d *DistDWF) Apply(dst, src *fermion.Field5) { d.apply(dst.S, src.S) }

func (d *DistDWF) apply(dst, src []latmath.Spinor) {
	d.hop(dst, src, complex(-d.M5+4+1, 0))
	v4 := d.local.Volume()
	mf := complex(d.Mf, 0)
	for s := 0; s < d.Ls; s++ {
		for idx := 0; idx < v4; idx++ {
			out := dst[s*v4+idx]
			if up := s + 1; up < d.Ls {
				out = out.Sub(projMinus5(src[up*v4+idx]))
			} else {
				out = out.AXPY(mf, projMinus5(src[idx]))
			}
			if dn := s - 1; dn >= 0 {
				out = out.Sub(projPlus5(src[dn*v4+idx]))
			} else {
				out = out.AXPY(mf, projPlus5(src[(d.Ls-1)*v4+idx]))
			}
			dst[s*v4+idx] = out
		}
	}
}

// ApplyDag computes dst = D† src = R γ5 D γ5 R src.
func (d *DistDWF) ApplyDag(dst, src *fermion.Field5) { d.applyDag(dst.S, src.S, d.apply) }

// projPlus5 and projMinus5 are the chiral projectors (1 ± γ5)/2.
func projPlus5(s latmath.Spinor) latmath.Spinor {
	return s.Add(latmath.Gamma5.ApplySpin(s)).Scale(0.5)
}

func projMinus5(s latmath.Spinor) latmath.Spinor {
	return s.Sub(latmath.Gamma5.ApplySpin(s)).Scale(0.5)
}
