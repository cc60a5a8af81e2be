package core

import (
	"qcdoc/internal/fermion"
	"qcdoc/internal/latmath"
	"qcdoc/internal/lattice"
	"qcdoc/internal/node"
	"qcdoc/internal/qmp"
	"qcdoc/internal/team"
)

// wilsonHop is the distributed 4-D Wilson hopping term on Ls slices of
// spinors sharing one gauge field: the kernel of the Wilson and clover
// operators (Ls = 1) and of the domain-wall operator, whose fifth
// dimension stays node-local. D and D† are the same hop with opposite
// projector signs s (+1 and -1). Boundary spin-projected half spinors
// travel through the SCU as in the hand-tuned production code: the low
// face is projected with (1-sγ_mu) and sent backward (the receiver
// applies its own gauge link); the high face is projected with
// (1+sγ_mu), multiplied by U†, and sent forward (the sender owns that
// link). Twelve
// complex numbers per face site per slice per direction — exactly the
// cost model's comm volume. The gauge field is read once for all slices,
// which is the data reuse behind the DWF kernel's high efficiency (§4).
type wilsonHop struct {
	halo
	Ls int
	// sites is the post-exchange site loop on the node's sub-volume of
	// the configuration, over the launch's neighbour table.
	sites fermion.HopKernel
	team  *team.Team // the rank program's; nil runs every loop on the rank
	// dag is set while D† runs: its slices travel in reflected order.
	dag bool
}

func newWilsonHop(ctx *node.Ctx, comm *qmp.Comm, tm *team.Team, geo *geometry, gauge *lattice.GaugeField, kind fermion.OpKind, ls int, prec fermion.Precision) wilsonHop {
	return wilsonHop{
		halo:  newHalo(ctx, comm, geo, ls*latmath.HalfSpinorWords, kind, prec, ls),
		Ls:    ls,
		sites: fermion.HopKernel{G: ScatterGauge(gauge, geo.dec, GridCoord(comm.Coord())), Nb: geo.nb1},
		team:  tm,
	}
}

// hop computes dst = diag·src - ½ Σ_mu [(1-sγ_mu)U_mu(x)src(x+mu) +
// (1+sγ_mu)U†_mu(x-mu)src(x-mu)] on every slice, with halo exchange
// over the machine. All spin and colour arithmetic is latmath's hop
// kernel.
func (w *wilsonHop) hop(dst, src []latmath.Spinor, diag complex128, s int) {
	// The face pack stays on the rank's goroutine at any volume: it
	// stores into node memory, whose pages install on first write.
	g := w.sites.G
	v4 := g.L.Volume()
	w.dag = s < 0
	var h latmath.HalfSpinor
	for mu := 0; mu < lattice.Ndim; mu++ {
		if !w.split[mu] {
			continue
		}
		lo, hi := w.lo[mu][0], w.hi[mu][0]
		for slot := 0; slot < w.Ls*len(lo); slot++ {
			sl, i := w.slice(slot/len(lo)), slot%len(lo)
			h.Project(mu, s, &src[sl*v4+lo[i]])
			w.putHalf(mu, 0, slot, &h)
			h.Project(mu, -s, &src[sl*v4+hi[i]])
			h.DagMulMat(&g.U[lattice.Ndim*hi[i]+mu], &h)
			w.putHalf(mu, 1, slot, &h)
		}
	}
	w.exchange()
	// Chunks of the site loop read the ghosts in node memory and write
	// only their own sites.
	w.sites.Ghosts = (*hopGhosts)(w)
	w.sites.Run(w.team, dst, src, diag, s)
}

// slice maps a slot's slice to the field slice it carries: itself under
// D, its mirror Ls-1-k under D†. D† = R γ5 D γ5 R puts the slices of
// R src on the wire in natural order, the order TestWireTraceGolden pins.
func (w *wilsonHop) slice(k int) int {
	if w.dag {
		return w.Ls - 1 - k
	}
	return k
}

// hopGhosts is a wilsonHop as the site loop's ghost reader: slice s of
// the (mu, end) recv buffer, in face-site order.
type hopGhosts wilsonHop

func (g *hopGhosts) Half(h *latmath.HalfSpinor, mu, end, s, slot int) {
	g.half(h, mu, end, (*wilsonHop)(g).slice(s)*len(g.lo[mu][0])+slot)
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
	term *fermion.CloverTerm // site-local clover term; nil for plain Wilson
}

// newDistWilson builds the operator on one node from the global gauge
// field. clover, when non-nil, must be the clover operator constructed
// on that field.
func newDistWilson(ctx *node.Ctx, comm *qmp.Comm, tm *team.Team, geo *geometry, gauge *lattice.GaugeField, clover *fermion.Clover, mass float64, prec fermion.Precision) *DistWilson {
	d := &DistWilson{Mass: mass}
	kind := fermion.WilsonKind
	if clover != nil {
		kind = fermion.CloverKind
		term := make([][4][4]latmath.Mat3, geo.dec.LocalVolume())
		forEachSite(geo.dec, GridCoord(comm.Coord()), func(l, g int) { term[l] = clover.TermAt(g) })
		d.term = fermion.NewCloverTerm(term)
	}
	d.wilsonHop = newWilsonHop(ctx, comm, tm, geo, gauge, kind, 1, prec)
	return d
}

// Apply computes dst = D src.
func (d *DistWilson) Apply(dst, src *lattice.FermionField) { d.apply(dst.S, src.S, +1) }

// ApplyDag computes dst = D† src = γ5 D γ5 src: the hop with the
// projector signs swapped, plus the clover term, its own adjoint.
func (d *DistWilson) ApplyDag(dst, src *lattice.FermionField) { d.apply(dst.S, src.S, -1) }

func (d *DistWilson) apply(dst, src []latmath.Spinor, s int) {
	d.hop(dst, src, complex(d.Mass+4, 0), s)
	if d.term != nil {
		d.term.AddTo(d.team, dst, src)
	}
}

// DistDWF is the distributed domain-wall operator: the 4-D Wilson hop on
// each of the Ls fifth-dimension slices plus the node-local fifth-
// dimension hops.
type DistDWF struct {
	wilsonHop
	M5, Mf float64
	fifth  fermion.FifthDimKernel
}

// newDistDWF builds the operator on one node from the global gauge
// field.
func newDistDWF(ctx *node.Ctx, comm *qmp.Comm, tm *team.Team, geo *geometry, gauge *lattice.GaugeField, m5, mf float64, ls int, prec fermion.Precision) *DistDWF {
	return &DistDWF{wilsonHop: newWilsonHop(ctx, comm, tm, geo, gauge, fermion.DWFKind, ls, prec), M5: m5, Mf: mf}
}

// Apply computes dst = D src.
func (d *DistDWF) Apply(dst, src *fermion.Field5) { d.apply(dst.S, src.S, +1) }

// ApplyDag computes dst = D† src = R γ5 D γ5 R src: the hop with the
// projector signs swapped and the fifth-dimension hops reversed.
func (d *DistDWF) ApplyDag(dst, src *fermion.Field5) { d.apply(dst.S, src.S, -1) }

func (d *DistDWF) apply(dst, src []latmath.Spinor, s int) {
	d.hop(dst, src, complex(-d.M5+4+1, 0), s)
	d.fifth.Run(d.team, dst, src, d.Ls, d.Mf, s)
}
