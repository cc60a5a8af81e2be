// Package ethjtag models QCDOC's management plane (§2.3, Figure 2's
// green network): the standard Ethernet that connects every node (via
// the daughterboard and motherboard 5-port hubs) to the host and disks,
// and the second, software-free Ethernet/JTAG path — circuitry that
// decodes UDP packets carrying JTAG commands and drives the ASIC's JTAG
// controller directly, so code can be loaded into a PROM-less node and a
// failing node can be probed even when no software runs on it.
package ethjtag

import (
	"errors"
	"fmt"
	"sort"

	"qcdoc/internal/event"
)

// Addr is an Ethernet endpoint address.
type Addr uint32

// Well-known addresses.
const (
	// Broadcast delivers to every attached port except the sender.
	Broadcast Addr = 0xFFFFFFFF
	// HostAddr is the SMP host.
	HostAddr Addr = 1
	// NodeAddrBase: node rank r has Ethernet address NodeAddrBase+2r and
	// JTAG address NodeAddrBase+2r+1 (two connections per ASIC, §2.3).
	NodeAddrBase Addr = 0x1000
)

// NodeEthAddr returns the standard-Ethernet address of node rank r.
func NodeEthAddr(rank int) Addr { return NodeAddrBase + Addr(2*rank) }

// NodeJTAGAddr returns the Ethernet/JTAG address of node rank r.
func NodeJTAGAddr(rank int) Addr { return NodeAddrBase + Addr(2*rank) + 1 }

// UDP ports of the protocols riding the management network.
const (
	PortJTAG uint16 = 0x5A5A // Ethernet/JTAG controller
	PortBoot uint16 = 69     // run-kernel load
	PortRPC  uint16 = 111    // host <-> kernel RPC (§3.1)
	PortNFS  uint16 = 2049   // kernel NFS shim (§3.2)
)

// Packet is one UDP datagram on the management network. It is a plain
// value — the payload is an immutable string, a JTAG command a struct —
// so a packet fans out to every broadcast receiver and duplicates
// without a copy.
type Packet struct {
	Src, Dst Addr
	Port     uint16
	Payload  string
	// JTAG is the command or reply a PortJTAG packet carries; such a
	// packet has no Payload.
	JTAG JTAGCmd
}

// payloadBytes is the packet's UDP payload size on the wire.
func (p *Packet) payloadBytes() int {
	if p.Port == PortJTAG {
		return jtagCmdBytes
	}
	return len(p.Payload)
}

// Link speeds (§2.3, §3.1).
const (
	NodeEthernetBps = 100_000_000   // 100 Mbit node controllers
	HostEthernetBps = 1_000_000_000 // Gigabit host links
)

// frameOverheadBytes approximates Ethernet+IP+UDP framing.
const frameOverheadBytes = 54

// FaultVerdict is a fault injector's decision about one packet.
type FaultVerdict int

const (
	// FaultNone delivers the packet normally.
	FaultNone FaultVerdict = iota
	// FaultDrop loses the packet in the switch fabric: it was
	// serialized (the sender paid the line time) but never arrives.
	FaultDrop
	// FaultDup delivers the packet twice — the hub-retransmit glitch
	// that makes at-least-once protocols earn their dedup logic.
	FaultDup
	// FaultStall delays delivery by StallLatency on top of the normal
	// switch traversal — a congested or degraded host-side path (the NFS
	// server fighting the RAID for its disks, §3.2/§4).
	FaultStall
)

// Switch timing.
const (
	// SwitchLatency is a packet's traversal of the hub tree, from the end
	// of its serialization to its arrival.
	SwitchLatency = 10 * event.Microsecond
	// StallLatency is the extra delivery delay a FaultStall verdict adds.
	StallLatency = 200 * event.Microsecond
)

// FaultFunc inspects a packet at launch (after serialization timing is
// charged, before delivery is scheduled) and returns a verdict. It must
// be deterministic in packet order: the fault plan derives decisions
// from a counted stream, never from wall-clock or map iteration.
type FaultFunc func(pkt *Packet) FaultVerdict

// Network is the switched management Ethernet: a tree of 5-port hubs in
// hardware, modelled as a store-and-forward switch with per-port
// serialization and a fixed traversal latency (SwitchLatency).
//
// The switch and every port live on the network's one engine: a packet
// serializes on its sender's port, enters the switch at the end of
// serialization, passes the fault injector there — in one deterministic
// packet order, so the counted fault stream replays — and is delivered
// to its destination port at the arrival time. The management plane
// runs on an unsharded machine only (qdaemon.New refuses a sharded one).
type Network struct {
	eng     *event.Engine
	ports   map[Addr]*Port
	addrs   []Addr // attached addresses in ascending order, for deterministic broadcast
	Dropped uint64 // packets to unknown destinations

	// Fault, when set, judges every packet entering the switch; see
	// FaultFunc. Drop, duplication, and stall counts are kept for
	// telemetry.
	Fault           FaultFunc
	FaultDropped    uint64
	FaultDuplicated uint64
	FaultStalled    uint64

	// slab holds every packet between Send and its receiver; free lists
	// the empty slots. A hop's event carries its slot as the handler
	// argument (HandleEvent), so a packet in flight costs no closure.
	// Each qdaemon builds its own Network: no pooled run inherits slots.
	slab []flight
	free []uint32
}

// flight is a packet in the switch and, once routed, its port.
type flight struct {
	pkt Packet
	dst *Port
}

// The hop a slab slot's event performs, in the low bits of its
// argument; the slot index is the rest.
const (
	hopRoute   = iota // enter the switch: fault verdict, fan-out
	hopDeliver        // arrive at the destination port
	hopHandoff        // reach a continuation-tier receiver
	hopBits    = 2
)

// launch parks pkt, bound for dst, in a free slot and schedules hop on
// it at time t.
func (n *Network) launch(t event.Time, hop uint64, pkt Packet, dst *Port) {
	if len(n.free) == 0 {
		n.free = append(n.free, uint32(len(n.slab)))
		n.slab = append(n.slab, flight{})
	}
	i := n.free[len(n.free)-1]
	n.free = n.free[:len(n.free)-1]
	n.slab[i] = flight{pkt, dst}
	n.eng.AtHandler(t, n, uint64(i)<<hopBits|hop)
}

// take empties slot i, releasing its payload, and returns what it held.
func (n *Network) take(i uint64) flight {
	f := n.slab[i]
	n.slab[i] = flight{}
	n.free = append(n.free, uint32(i))
	return f
}

// HandleEvent performs one hop of a packet in flight. It implements
// event.Handler and is not meant to be called directly.
func (n *Network) HandleEvent(arg uint64) {
	i := arg >> hopBits
	switch arg & (1<<hopBits - 1) {
	case hopRoute:
		n.route(i)
	case hopDeliver:
		n.slab[i].dst.deliver(i)
	case hopHandoff:
		f := n.take(i)
		f.dst.handler(f.pkt)
	}
}

// NewNetwork creates the management network.
func NewNetwork(eng *event.Engine) *Network {
	return &Network{eng: eng, ports: map[Addr]*Port{}}
}

// Now is the switch's simulation clock — fault injectors windowing on
// sim time read it from inside the Fault hook.
func (n *Network) Now() event.Time { return n.eng.Now() }

// Port is one endpoint: a serializer, a receive queue and counters, all
// on the network's engine.
type Port struct {
	net       *Network
	addr      Addr
	bps       int64
	rx        *event.Queue[Packet]
	handler   func(Packet) // continuation-tier receiver; bypasses rx when set
	busyUntil event.Time
	TxPackets uint64
	RxPackets uint64
}

// Attach adds an endpoint with the given line rate in bits/second.
// Setup-time only: the port table is read-only once the simulation runs.
func (n *Network) Attach(addr Addr, bps int64) *Port {
	if _, dup := n.ports[addr]; dup {
		panic(fmt.Sprintf("ethjtag: duplicate address %#x", addr))
	}
	p := &Port{
		net:  n,
		addr: addr,
		bps:  bps,
		rx:   event.NewQueue[Packet](n.eng, fmt.Sprintf("eth %#x", addr)),
	}
	n.ports[addr] = p
	i := sort.Search(len(n.addrs), func(i int) bool { return n.addrs[i] >= addr })
	n.addrs = append(n.addrs, 0)
	copy(n.addrs[i+1:], n.addrs[i:])
	n.addrs[i] = addr
	return p
}

// ErrNoRoute is returned for packets to unattached addresses.
var ErrNoRoute = errors.New("ethjtag: no route to destination")

// Send launches a packet; it serializes at the port's line rate, enters
// the switch, and arrives after the switch latency. Broadcast fans out
// to every other port. Unroutable destinations are rejected here,
// synchronously (the port table is static after setup).
func (p *Port) Send(pkt Packet) error {
	pkt.Src = p.addr
	if pkt.Dst != Broadcast {
		if _, ok := p.net.ports[pkt.Dst]; !ok {
			p.net.Dropped++
			return fmt.Errorf("%w: %#x", ErrNoRoute, pkt.Dst)
		}
	}
	bits := int64(pkt.payloadBytes()+frameOverheadBytes) * 8
	ser := event.Time(float64(bits) / float64(p.bps) * 1e12)
	eng := p.net.eng
	start := eng.Now()
	if p.busyUntil > start {
		start = p.busyUntil
	}
	p.busyUntil = start + ser
	p.TxPackets++
	// The frame enters the switch when its last bit leaves the port.
	p.net.launch(p.busyUntil, hopRoute, pkt, nil)
	return nil
}

// route carries the packet in slot i through the switch fabric: the
// fault injector judges it in place (in one deterministic packet order,
// so a counted fault stream replays), then it is delivered to its
// destination port at the arrival time.
func (n *Network) route(i uint64) {
	verdict := FaultNone
	if n.Fault != nil {
		verdict = n.Fault(&n.slab[i].pkt)
	}
	pkt := n.take(i).pkt
	if verdict == FaultDrop {
		// The line time was spent; the switch fabric ate the frame.
		n.FaultDropped++
		return
	}
	if verdict == FaultDup {
		n.FaultDuplicated++
	}
	arrive := n.eng.Now() + SwitchLatency
	if verdict == FaultStall {
		// The frame is held in the degraded path and delivered late.
		n.FaultStalled++
		arrive += StallLatency
	}
	if pkt.Dst == Broadcast {
		// Fan out in address order, not map order: delivery events at
		// equal times dispatch in scheduling order, so a map-ordered
		// broadcast would reorder the downstream event stream from run
		// to run (TestBroadcast holds this).
		for _, addr := range n.addrs {
			if addr == pkt.Src {
				continue
			}
			n.launch(arrive, hopDeliver, pkt, n.ports[addr])
		}
		return
	}
	dst := n.ports[pkt.Dst]
	n.launch(arrive, hopDeliver, pkt, dst)
	if verdict == FaultDup {
		n.launch(arrive, hopDeliver, pkt, dst)
	}
}

// deliver lands the packet in slot i at port p.
func (p *Port) deliver(i uint64) {
	p.RxPackets++
	if p.handler != nil {
		// One-event deferral, matching the Put -> gate-wake hop a
		// coroutine receiver takes, so event ordering is tier-invariant.
		// The packet keeps its slot until the hand-off.
		p.net.eng.AtHandler(p.net.eng.Now(), p.net, i<<hopBits|hopHandoff)
		return
	}
	p.rx.Put(p.net.take(i).pkt)
}

// OnPacket attaches a continuation-tier receiver: every arriving packet
// is handed to fn at its arrival time, with no receiver process or queue
// in between. Packets already queued drain into fn in arrival order, in
// one event at the current time. Attaching a handler replaces Recv; a
// port has one receiver, on one tier or the other.
func (p *Port) OnPacket(fn func(Packet)) {
	p.handler = fn
	if p.rx.Len() == 0 {
		return
	}
	eng := p.net.eng
	eng.At(eng.Now(), func() {
		for {
			pkt, ok := p.rx.TryGet()
			if !ok {
				return
			}
			fn(pkt)
		}
	})
}

// Recv blocks until a packet arrives.
func (p *Port) Recv(proc *event.Proc) Packet { return p.rx.Get(proc) }

// RecvTimeout blocks until a packet arrives or d elapses, reporting
// whether a packet was returned. The qdaemon's retry machinery is built
// on this: a lost reply surfaces as a timeout instead of a forever-hang.
func (p *Port) RecvTimeout(proc *event.Proc, d event.Time) (Packet, bool) {
	return p.rx.GetTimeout(proc, d)
}

// --- Ethernet/JTAG controller -------------------------------------------

// JTAGOp is a JTAG command carried in a UDP payload.
type JTAGOp byte

const (
	// OpLoadBoot loads one word of boot-kernel code (into the
	// instruction cache of the real chip; counted here).
	OpLoadBoot JTAGOp = iota + 1
	// OpStartBoot releases the CPU into the loaded boot kernel.
	OpStartBoot
	// OpWriteWord pokes node memory (RISCWatch-style debugging).
	OpWriteWord
	// OpReadWord peeks node memory; the reply carries the data.
	OpReadWord
	// OpStatus reads the node's lifecycle state.
	OpStatus
)

// JTAGCmd is a JTAG command or its reply. The controller's circuitry
// decodes it from a UDP payload of [op:1][addr:8][data:8]; the simulator
// carries the fields and charges the line for those 17 bytes.
type JTAGCmd struct {
	Op         JTAGOp
	Addr, Data uint64
}

// jtagCmdBytes is a JTAG command's payload size on the wire.
const jtagCmdBytes = 17

// JTAGTarget is the chip-side surface the controller drives: raw memory,
// the boot loader, and the reset controls. It requires no software on
// the node (§2.3: "requires no software to do the UDP packet decoding").
type JTAGTarget interface {
	ReadWord(addr uint64) uint64
	WriteWord(addr uint64, w uint64)
	LoadBootWord(addr uint64, w uint64)
	StartBootKernel() error
	StateCode() uint64
}

// JTAGController serves JTAG-over-UDP on a port. It is pure hardware —
// combinational packet decode, alive from power-on — so it runs on the
// engine's continuation tier: every machine has one per node, and none
// of them costs a goroutine.
type JTAGController struct {
	Port   *Port
	Target JTAGTarget
	Served uint64
}

// Start attaches the controller to its port.
func (c *JTAGController) Start() {
	c.Port.OnPacket(c.serve)
}

// serve answers one packet, in its arrival event.
func (c *JTAGController) serve(pkt Packet) {
	if pkt.Port != PortJTAG {
		return // the JTAG connection answers only JTAG UDP (§2.3)
	}
	c.Served++
	cmd := pkt.JTAG
	var reply JTAGCmd
	switch cmd.Op {
	case OpLoadBoot:
		c.Target.LoadBootWord(cmd.Addr, cmd.Data)
		reply = JTAGCmd{Op: cmd.Op, Addr: cmd.Addr}
	case OpStartBoot:
		reply = JTAGCmd{Op: cmd.Op}
		if err := c.Target.StartBootKernel(); err != nil {
			reply.Data = 1
		}
	case OpWriteWord:
		c.Target.WriteWord(cmd.Addr, cmd.Data)
		reply = JTAGCmd{Op: cmd.Op, Addr: cmd.Addr}
	case OpReadWord:
		reply = JTAGCmd{Op: cmd.Op, Addr: cmd.Addr, Data: c.Target.ReadWord(cmd.Addr)}
	case OpStatus:
		reply = JTAGCmd{Op: cmd.Op, Data: c.Target.StateCode()}
	default:
		reply = JTAGCmd{Data: ^uint64(0)}
	}
	_ = c.Port.Send(Packet{Dst: pkt.Src, Port: PortJTAG, JTAG: reply})
}
