package core

import (
	"qcdoc/internal/fermion"
	"qcdoc/internal/latmath"
	"qcdoc/internal/lattice"
	"qcdoc/internal/node"
	"qcdoc/internal/qmp"
)

// naikReach is the ASQTAD operator's hop reach: the Naik term couples
// third-nearest neighbours, so three boundary layers travel per face and
// a distributed direction needs a local extent of at least three.
const naikReach = 3

// DistASQTAD is the distributed ASQTAD staggered operator. Fat and long
// links are precomputed on the global configuration and scattered; the
// halo exchange ships, per direction, three boundary layers of color
// vectors — the third-nearest-neighbour communication the paper notes
// improved discretizations need (§1). Forward-hop ghosts travel as plain
// vectors (the receiver applies its locally stored links); backward-hop
// contributions are link-applied and coefficient-folded by the sender,
// pre-summed so the wire cost stays three vectors per face site.
type DistASQTAD struct {
	halo
	dec  lattice.Decomp
	gc   lattice.Site // grid coordinate, for global staggered phases
	Fat  *lattice.GaugeField
	Long *lattice.GaugeField
	Mass float64
	Naik float64

	// Site lists of the low layers x_mu = 0..2 and the high layers
	// x_mu = L-3..L-1; layer k of face site i is slot k*faceVolume+i.
	layers   [lattice.Ndim][naikReach][]int
	hiLayers [lattice.Ndim][naikReach][]int
}

// NewDistASQTAD builds the operator on one node. ref must be built on
// the global gauge field; its fat and long links are scattered here.
func NewDistASQTAD(ctx *node.Ctx, comm *qmp.Comm, dec lattice.Decomp, ref *fermion.ASQTAD, prec fermion.Precision) *DistASQTAD {
	gc := GridCoord(comm.Coord())
	level := fermion.WorkingSetLevel(fermion.AsqtadKind, prec, dec.LocalVolume())
	cost := fermion.SiteCost(fermion.AsqtadKind, prec, level).Scale(float64(dec.LocalVolume()))
	d := &DistASQTAD{
		halo: newHalo(ctx, comm, dec, naikReach*latmath.Vec3Words, cost),
		dec:  dec,
		gc:   gc,
		Fat:  ScatterGauge(ref.Fat, dec, gc),
		Long: ScatterGauge(ref.Long, dec, gc),
		Mass: ref.Mass,
		Naik: ref.Naik,
	}
	l := dec.Local
	for mu := 0; mu < lattice.Ndim; mu++ {
		if !d.split[mu] {
			continue
		}
		for k := 0; k < naikReach; k++ {
			d.layers[mu][k] = lattice.LayerSites(l, mu, k)
			d.hiLayers[mu][k] = lattice.LayerSites(l, mu, l[mu]-naikReach+k)
		}
	}
	return d
}

// pack fills the send buffers: toward -mu our layers 0..2 plain (the
// -mu neighbour's forward ghosts), toward +mu the combined backward
// contributions to the +mu neighbour's layers 0..2.
func (d *DistASQTAD) pack(src *lattice.ColorField) {
	l := d.dec.Local
	cn := complex(d.Naik, 0)
	for mu := 0; mu < lattice.Ndim; mu++ {
		if !d.split[mu] {
			continue
		}
		fv := len(d.layers[mu][0])
		for k := 0; k < naikReach; k++ {
			for i, idx := range d.layers[mu][k] {
				d.putVec(mu, 0, k*fv+i, src.V[idx])
			}
		}
		for i := 0; i < fv; i++ {
			// Target layer 0: fat from our top layer + Naik from layer L-3.
			yTop := d.hiLayers[mu][2][i] // x_mu = L-1
			yNk0 := d.hiLayers[mu][0][i] // x_mu = L-3
			xTop := l.SiteOf(yTop)
			v0 := d.Fat.Link(xTop, mu).DagMulVec(src.V[yTop]).
				Add(d.Long.Link(l.SiteOf(yNk0), mu).DagMulVec(src.V[yNk0]).Scale(cn))
			d.putVec(mu, 1, 0*fv+i, v0)
			// Target layer 1: Naik from layer L-2.
			yNk1 := d.hiLayers[mu][1][i]
			v1 := d.Long.Link(l.SiteOf(yNk1), mu).DagMulVec(src.V[yNk1]).Scale(cn)
			d.putVec(mu, 1, 1*fv+i, v1)
			// Target layer 2: Naik from layer L-1.
			v2 := d.Long.Link(xTop, mu).DagMulVec(src.V[yTop]).Scale(cn)
			d.putVec(mu, 1, 2*fv+i, v2)
		}
	}
}

// ghost is the color vector the (mu, end) neighbour packed for layer k
// of our face site x.
func (d *DistASQTAD) ghost(mu, end, k int, x lattice.Site) latmath.Vec3 {
	return d.vec(mu, end, k*len(d.layers[mu][0])+faceSlot(d.dec.Local, x, mu))
}

// Apply computes dst = D src with halo exchange.
func (d *DistASQTAD) Apply(dst, src *lattice.ColorField) {
	d.pack(src)
	d.exchange()
	l := d.dec.Local
	v := l.Volume()
	cn := complex(d.Naik, 0)
	for idx := 0; idx < v; idx++ {
		x := l.SiteOf(idx)
		gx := d.dec.GlobalOf(d.gc, x)
		acc := src.V[idx].Scale(complex(d.Mass, 0))
		for mu := 0; mu < lattice.Ndim; mu++ {
			e := complex(0.5*etaPhase(gx, mu), 0)
			split := d.split[mu]
			var hop latmath.Vec3
			// Forward fat: F_mu(x) chi(x+mu).
			if split && x[mu] == l[mu]-1 {
				hop = hop.Add(d.Fat.Link(x, mu).MulVec(d.ghost(mu, 1, 0, x)))
			} else {
				hop = hop.Add(d.Fat.Link(x, mu).MulVec(src.V[l.Index(l.Hop(x, mu, 1))]))
			}
			// Forward Naik: c_N L_mu(x) chi(x+3mu).
			if split && x[mu] >= l[mu]-naikReach {
				layer := x[mu] + naikReach - l[mu]
				hop = hop.Add(d.Long.Link(x, mu).MulVec(d.ghost(mu, 1, layer, x)).Scale(cn))
			} else {
				hop = hop.Add(d.Long.Link(x, mu).MulVec(src.V[l.Index(l.Hop(x, mu, naikReach))]).Scale(cn))
			}
			// Backward fat -F†_mu(x-mu) chi(x-mu) and backward Naik
			// -c_N L†_mu(x-3mu) chi(x-3mu): local unless the source site is on
			// the -mu neighbour, whose contributions arrive combined (links
			// applied and coefficient folded by the sender).
			if !(split && x[mu] == 0) {
				xm := l.Hop(x, mu, -1)
				hop = hop.Sub(d.Fat.Link(xm, mu).DagMulVec(src.V[l.Index(xm)]))
			}
			if !(split && x[mu] < naikReach) {
				xm := l.Hop(x, mu, -naikReach)
				hop = hop.Sub(d.Long.Link(xm, mu).DagMulVec(src.V[l.Index(xm)]).Scale(cn))
			} else {
				hop = hop.Sub(d.ghost(mu, 0, x[mu], x))
			}
			acc = acc.Add(hop.Scale(e))
		}
		dst.V[idx] = acc
	}
}

// ApplyDag computes dst = (2m - D) src.
func (d *DistASQTAD) ApplyDag(dst, src *lattice.ColorField) {
	d.Apply(dst, src)
	for i := range dst.V {
		dst.V[i] = src.V[i].Scale(complex(2*d.Mass, 0)).Sub(dst.V[i])
	}
}

// etaPhase is the Kogut-Susskind phase for GLOBAL coordinates: the local
// site's phase must be computed from its global position or the phases
// break at node boundaries. The caller passes the global site.
func etaPhase(x lattice.Site, mu int) float64 {
	s := 0
	for nu := 0; nu < mu; nu++ {
		s += x[nu]
	}
	if s%2 == 1 {
		return -1
	}
	return 1
}
