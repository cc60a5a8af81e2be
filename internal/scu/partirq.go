package scu

import "qcdoc/internal/geom"

// partState implements the partition-interrupt mechanism (§2.2): 8-bit
// masks flood through the mesh, each node forwarding on each link the
// bits it has not sent there, and the slow global clock samples them
// into the CPU-visible register, its window sized (by the machine) to
// let an interrupt reach every node first.
type partState struct {
	scu         *SCU
	seen        uint8 // interrupt bits known to this node
	status      uint8 // bits latched at the last window sample
	sentPerLink [geom.NumLinks]uint8
	onIRQ       func(mask uint8)
}

func (ps *partState) init(s *SCU) { ps.scu = s }

// RaisePartIRQ asserts interrupt bits on this node; they flood to every
// node in the partition and are presented to each CPU at the next global
// clock sample.
func (s *SCU) RaisePartIRQ(bits uint8) { s.part.raise(bits) }

// OnPartIRQ registers the CPU handler invoked when the sampled partition
// interrupt status becomes non-zero or gains bits.
func (s *SCU) OnPartIRQ(fn func(mask uint8)) { s.part.onIRQ = fn }

// PartIRQStatus returns the status register as sampled at the last
// global clock window.
func (s *SCU) PartIRQStatus() uint8 { return s.part.status }

// PartIRQPending returns the raw (not yet sampled) interrupt bits known
// to this node.
func (s *SCU) PartIRQPending() uint8 { return s.part.seen }

// ClearPartIRQ deasserts bits after the CPU has handled them. The
// application must clear on every node only after the interrupt has
// propagated machine-wide (one full window), or a straggling forward
// will re-raise it.
func (s *SCU) ClearPartIRQ(bits uint8) {
	s.part.seen &^= bits
	s.part.status &^= bits
	for i := range s.part.sentPerLink {
		s.part.sentPerLink[i] &^= bits
	}
}

// WindowTick is driven by the machine's global clock: it latches the
// accumulated interrupt bits into the sampled status register and raises
// the CPU interrupt on change.
func (s *SCU) WindowTick() {
	ps := &s.part
	if ps.status != ps.seen {
		newBits := ps.seen &^ ps.status
		ps.status = ps.seen
		if ps.onIRQ != nil && newBits != 0 {
			ps.onIRQ(ps.status)
		}
	}
}

func (ps *partState) raise(bits uint8) {
	if bits&^ps.seen == 0 {
		return
	}
	ps.seen |= bits
	if ps.scu.WindowArm != nil {
		ps.scu.WindowArm()
	}
	ps.flood()
}

// flood forwards, on every attached link, any seen bits not previously
// sent there.
func (ps *partState) flood() {
	for i, lu := range ps.scu.links {
		if lu == nil {
			continue
		}
		outBits := ps.seen &^ ps.sentPerLink[i]
		if outBits == 0 {
			continue
		}
		ps.sentPerLink[i] |= outBits
		lu.sendPartIRQ(outBits)
	}
}

// receive handles a partition-interrupt packet arriving on from.
func (ps *partState) receive(from geom.Link, mask uint8) {
	lu := ps.scu.links[geom.LinkIndex(from)]
	lu.stats.PartIRQsRecvd++
	// No need to echo the bits back where they came from.
	ps.sentPerLink[geom.LinkIndex(from)] |= mask
	ps.raise(mask)
}
