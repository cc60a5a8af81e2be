package core

import (
	"qcdoc/internal/fermion"
	"qcdoc/internal/geom"
	"qcdoc/internal/latmath"
	"qcdoc/internal/lattice"
	"qcdoc/internal/node"
	"qcdoc/internal/ppc440"
	"qcdoc/internal/qmp"
	"qcdoc/internal/scu"
)

// geometry is the site geometry of one launch: every rank has the same
// local shape and split directions, so rankProgram builds it once on the
// host and the ranks only read it. No launch reuses another's (fleet
// machines solve concurrently).
type geometry struct {
	dec   lattice.Decomp
	split [lattice.Ndim]bool // direction is distributed over more than one node
	// lo[mu][k] and hi[mu][k] are layers x_mu = k and L-reach+k, k below
	// the hop reach; layer k of face site i is slot k*faceVolume+i.
	lo, hi [lattice.Ndim][naikReach][]int
	// nb1 and nbR are the tables at distance 1 and at the reach (one
	// table at reach 1), with ^slot where a hop leaves the node: low
	// layer k reaches the -mu neighbour at the reach, layer 0 at 1 too
	// (the combined ghost); high layer k reaches the +mu neighbour's
	// layer k, the top layer its layer 0 at 1.
	nb1, nbR lattice.Neighbors
}

func newGeometry(dec lattice.Decomp, reach int) *geometry {
	l := dec.Local
	g := &geometry{dec: dec, nb1: l.Neighbors(1)}
	g.nbR = g.nb1
	if reach > 1 {
		g.nbR = l.Neighbors(reach)
	}
	for mu := 0; mu < lattice.Ndim; mu++ {
		g.split[mu] = dec.Grid[mu] > 1
		fv := lattice.FaceVolume(l, mu)
		for k := 0; k < reach && g.split[mu]; k++ {
			g.lo[mu][k] = lattice.LayerSites(l, mu, k)
			g.hi[mu][k] = lattice.LayerSites(l, mu, l[mu]-reach+k)
			for i, lo := range g.lo[mu][k] {
				hi := g.hi[mu][k][i]
				g.nbR[lo][lattice.Ndim+mu], g.nbR[hi][mu] = ^int32(k*fv+i), ^int32(k*fv+i)
				if k == 0 {
					g.nb1[lo][lattice.Ndim+mu] = ^int32(i)
				}
				if k == reach-1 {
					g.nb1[hi][mu] = ^int32(i)
				}
			}
		}
	}
	return g
}

// halo is the package's one SCU face exchange, shared by every
// distributed operator. For each direction the lattice is split over
// nodes it owns four node-memory face buffers: send and recv for the low
// face (end 0, toward -mu) and the high face (end 1, toward +mu). An
// operator writes its boundary payload into the send buffers with the
// put methods, calls exchange, and reads its neighbours' payloads back
// from the recv buffers; a slot is one face site's payload, and sender
// and receiver agree on slot numbering through the geometry's layers.
//
// While the DMA engines move the faces the node's CPU model is charged
// the operator's whole-volume kernel cost, so simulated time reflects
// compute and communication overlapped as on the real machine.
type halo struct {
	*geometry
	ctx    *node.Ctx
	comm   *qmp.Comm
	charge ppc440.KernelCost // one operator application on the local volume

	words      [lattice.Ndim]int // words per face buffer
	send, recv [lattice.Ndim][2]uint64

	transfers  [4 * lattice.Ndim]scu.Transfer // one exchange's posts
	nTransfers int
}

// newHalo allocates the face buffers — per split direction, per end,
// send then recv — for an operator of kind shipping siteWords words per
// face site, charged its site cost on the ls slices of the local volume.
func newHalo(ctx *node.Ctx, comm *qmp.Comm, geo *geometry, siteWords int, kind fermion.OpKind, prec fermion.Precision, ls int) halo {
	sites := geo.dec.LocalVolume() * ls
	level := fermion.WorkingSetLevel(kind, prec, sites)
	cost := fermion.SiteCost(kind, prec, level)
	if kind == fermion.DWFKind {
		cost = fermion.DWFSiteCost(prec, level, ls)
	}
	h := halo{geometry: geo, ctx: ctx, comm: comm, charge: cost.Scale(float64(sites))}
	for mu := 0; mu < lattice.Ndim; mu++ {
		if !geo.split[mu] {
			continue
		}
		h.words[mu] = lattice.FaceVolume(geo.dec.Local, mu) * siteWords
		for end := 0; end < 2; end++ {
			h.send[mu][end] = ctx.N.AllocWords(h.words[mu])
			h.recv[mu][end] = ctx.N.AllocWords(h.words[mu])
		}
	}
	return h
}

// exchange ships every packed face and returns once all have landed.
// Per direction the receives are programmed first (the zero-copy
// landing), then the low face goes backward and the high face forward;
// this posting order fixes the event sequence numbers and with them the
// simulation's bit-exact schedule.
func (h *halo) exchange() {
	h.nTransfers = 0
	for mu := 0; mu < lattice.Ndim; mu++ {
		if !h.split[mu] {
			continue
		}
		h.post(h.comm.StartRecv(mu, geom.Fwd, scu.Contiguous(h.recv[mu][1], h.words[mu])))
		h.post(h.comm.StartRecv(mu, geom.Bwd, scu.Contiguous(h.recv[mu][0], h.words[mu])))
		h.post(h.comm.StartSend(mu, geom.Bwd, scu.Contiguous(h.send[mu][0], h.words[mu])))
		h.post(h.comm.StartSend(mu, geom.Fwd, scu.Contiguous(h.send[mu][1], h.words[mu])))
	}
	// Overlap: the CPU works the volume while the DMA engines move the
	// faces.
	h.ctx.N.Compute(h.ctx.P, h.charge)
	qmp.WaitAll(h.ctx.P, h.transfers[:h.nTransfers]...)
}

func (h *halo) post(t scu.Transfer, err error) {
	check(err)
	h.transfers[h.nTransfers] = t
	h.nTransfers++
}

// write stores one slot's words into a face buffer; read loads them.
func (h *halo) write(buf uint64, slot int, w []uint64) {
	h.ctx.N.Mem.WriteWords(buf+8*uint64(slot*len(w)), w)
}

func (h *halo) read(buf uint64, slot int, w []uint64) {
	h.ctx.N.Mem.ReadWords(buf+8*uint64(slot*len(w)), w)
}

// putHalf packs a projected half spinor into a send slot; half unpacks
// the neighbour's from the matching recv slot into v.
func (h *halo) putHalf(mu, end, slot int, v *latmath.HalfSpinor) {
	var w [latmath.HalfSpinorWords]uint64
	latmath.PackHalfSpinor(v, w[:])
	h.write(h.send[mu][end], slot, w[:])
}

func (h *halo) half(v *latmath.HalfSpinor, mu, end, slot int) {
	var w [latmath.HalfSpinorWords]uint64
	h.read(h.recv[mu][end], slot, w[:])
	latmath.UnpackHalfSpinor(v, w[:])
}

// putVec and vec are the color-vector slots of the staggered exchange.
func (h *halo) putVec(mu, end, slot int, v latmath.Vec3) {
	var w [latmath.Vec3Words]uint64
	latmath.PackVec3(v, w[:])
	h.write(h.send[mu][end], slot, w[:])
}

func (h *halo) vec(mu, end, slot int) latmath.Vec3 {
	var w [latmath.Vec3Words]uint64
	h.read(h.recv[mu][end], slot, w[:])
	return latmath.UnpackVec3(w[:])
}

func check(err error) {
	if err != nil {
		panic("core: " + err.Error())
	}
}
