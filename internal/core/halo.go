package core

import (
	"qcdoc/internal/geom"
	"qcdoc/internal/latmath"
	"qcdoc/internal/lattice"
	"qcdoc/internal/node"
	"qcdoc/internal/ppc440"
	"qcdoc/internal/qmp"
	"qcdoc/internal/scu"
)

// halo is the package's one SCU face exchange, shared by every
// distributed operator. For each direction the lattice is split over
// nodes it owns four node-memory face buffers: send and recv for the low
// face (end 0, toward -mu) and the high face (end 1, toward +mu). An
// operator writes its boundary payload into the send buffers with the
// put methods, calls exchange, and reads its neighbours' payloads back
// from the recv buffers; a slot is one face site's payload, and sender
// and receiver agree on slot numbering through lattice.LayerSites order.
//
// While the DMA engines move the faces the node's CPU model is charged
// the operator's whole-volume kernel cost, so simulated time reflects
// compute and communication overlapped as on the real machine.
type halo struct {
	ctx    *node.Ctx
	comm   *qmp.Comm
	charge ppc440.KernelCost // one operator application on the local volume

	split      [lattice.Ndim]bool // direction is distributed over more than one node
	words      [lattice.Ndim]int  // words per face buffer
	send, recv [lattice.Ndim][2]uint64

	transfers []scu.Transfer // reused by every exchange
}

// newHalo allocates the face buffers — per split direction, per end,
// send then recv — for an operator shipping siteWords words per face
// site.
func newHalo(ctx *node.Ctx, comm *qmp.Comm, dec lattice.Decomp, siteWords int, charge ppc440.KernelCost) halo {
	h := halo{ctx: ctx, comm: comm, charge: charge}
	for mu := 0; mu < lattice.Ndim; mu++ {
		if dec.Grid[mu] == 1 {
			continue
		}
		h.split[mu] = true
		h.words[mu] = lattice.FaceVolume(dec.Local, mu) * siteWords
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
	h.transfers = h.transfers[:0]
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
	qmp.WaitAll(h.ctx.P, h.transfers...)
}

func (h *halo) post(t scu.Transfer, err error) {
	check(err)
	h.transfers = append(h.transfers, t)
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
