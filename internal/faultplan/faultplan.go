// Package faultplan generates and injects deterministic machine-wide
// fault schedules. A Plan is derived from a seed through the simulator's
// counter-based RNG (internal/rng), so the same -faultseed produces the
// same faults — kind, victim, link, picosecond — on every run; injection
// is scheduled on the event engine, so detection and recovery timing are
// part of the machine's reproducible event stream (the property E16
// pins).
//
// The fault taxonomy covers the failure modes the QCDOC design defends
// against (DESIGN.md §12): permanent serial-link death and burst errors
// on the mesh wires (§2.2's parity/resend/retrain ladder), node crashes
// and hangs (detected by the host watchdog over the Ethernet/JTAG side
// network), and management-Ethernet packet loss and duplication
// (absorbed by the qdaemon's RPC retry layer).
package faultplan

import (
	"fmt"
	"strings"

	"qcdoc/internal/ethjtag"
	"qcdoc/internal/event"
	"qcdoc/internal/geom"
	"qcdoc/internal/hssl"
	"qcdoc/internal/machine"
	"qcdoc/internal/rng"
)

// Kind is a fault class.
type Kind uint8

const (
	// LinkDeath permanently severs one mesh wire (hssl.Wire.Kill):
	// retrains never restore it and the SCU escalates to link failure.
	LinkDeath Kind = iota
	// LinkBurst corrupts frames on one mesh wire for a bounded window,
	// driving the parity/resend and retrain machinery without killing
	// the link.
	LinkBurst
	// NodeCrash kills a node's software; its lifecycle state reads
	// Crashed over JTAG (fast watchdog detection).
	NodeCrash
	// NodeHang freezes a node's software while its state still claims
	// app-running; only the frozen heartbeat betrays it (slow
	// detection).
	NodeHang
	// NetDrop loses one management-Ethernet request in the switch
	// fabric; the qdaemon's RPC timeout/retry absorbs it.
	NetDrop
	// NetDup delivers one management-Ethernet request twice; idempotence
	// checks and stale-reply discard absorb it.
	NetDup
	// ChunkCorrupt flips one bit in a stored checkpoint chunk on the
	// host FS — silent RAID corruption. The recovery ladder's CRC
	// validation catches it and falls back a checkpoint generation.
	ChunkCorrupt
	// ChunkTorn truncates a stored checkpoint chunk — a torn write (the
	// host lost power mid-stripe). Decodes as a short read; same
	// generation-fallback rung as ChunkCorrupt.
	ChunkTorn
	// NFSStall delays every NFS-shim packet for a bounded window — the
	// host RAID path congested. Checkpoint writes land late but intact.
	NFSStall
	// NFSError drops every NFS-shim packet for a bounded window — the
	// host FS erroring out. Files written in the window never commit
	// (the shim assembles all-or-nothing), so those generations simply
	// do not exist.
	NFSError
	// WatchdogFalsePositive injects a spurious death report for a live
	// node. The watchdog must probe the node over JTAG before isolating
	// it; a live node survives the report.
	WatchdogFalsePositive
	// RecoveryCrash kills a second node, scheduled relative to the
	// first recovery's repartition window: it arms only from the second
	// Arm of the plan onward (attempt >= 1), so it lands during or
	// after the restore that follows the first death.
	RecoveryCrash
)

func (k Kind) String() string {
	switch k {
	case LinkDeath:
		return "link-death"
	case LinkBurst:
		return "link-burst"
	case NodeCrash:
		return "node-crash"
	case NodeHang:
		return "node-hang"
	case NetDrop:
		return "net-drop"
	case NetDup:
		return "net-dup"
	case ChunkCorrupt:
		return "chunk-corrupt"
	case ChunkTorn:
		return "chunk-torn"
	case NFSStall:
		return "nfs-stall"
	case NFSError:
		return "nfs-error"
	case WatchdogFalsePositive:
		return "watchdog-false-positive"
	case RecoveryCrash:
		return "recovery-crash"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Fault is one scheduled injection. At is relative to the Arm call (the
// recovered-machine clock starts over on each restart, so absolute
// times would not survive an attempt boundary).
type Fault struct {
	Kind Kind
	At   event.Time
	// Rank is the victim node (NodeCrash, NodeHang, LinkDeath,
	// LinkBurst).
	Rank int
	// Link selects the victim wire on Rank (LinkDeath, LinkBurst).
	Link geom.Link
	// Dur bounds a LinkBurst's corruption window.
	Dur event.Time
	// Every is a LinkBurst's corruption stride (every Every-th frame).
	Every uint64
	// Nth selects the Nth management request sent after Arm (NetDrop,
	// NetDup), or the victim bit/byte inside a stored chunk
	// (ChunkCorrupt, ChunkTorn).
	Nth uint64
	// Spent marks a fault that has fired. A restarted attempt re-arms
	// the same plan; spent faults stay down, so a node dies once, not
	// once per attempt.
	Spent bool
}

func (f Fault) String() string {
	switch f.Kind {
	case NetDrop, NetDup:
		return fmt.Sprintf("%s request #%d", f.Kind, f.Nth)
	case LinkDeath:
		return fmt.Sprintf("%s node %d %v at %v", f.Kind, f.Rank, f.Link, f.At)
	case LinkBurst:
		return fmt.Sprintf("%s node %d %v at %v for %v (every %d frames)",
			f.Kind, f.Rank, f.Link, f.At, f.Dur, f.Every)
	case ChunkCorrupt, ChunkTorn:
		return fmt.Sprintf("%s rank %d chunk at %v (sel %d)", f.Kind, f.Rank, f.At, f.Nth)
	case NFSStall, NFSError:
		return fmt.Sprintf("%s at %v for %v", f.Kind, f.At, f.Dur)
	}
	return fmt.Sprintf("%s node %d at %v", f.Kind, f.Rank, f.At)
}

// Spec says how many faults of each class to draw and from what ranges.
type Spec struct {
	// From/To bound injection times (relative to Arm).
	From, To event.Time

	NodeCrashes int
	NodeHangs   int
	LinkDeaths  int
	LinkBursts  int
	NetDrops    int
	NetDups     int

	// Second-order and storage-plane fault counts (DESIGN.md §16).
	ChunkCorrupts          int
	ChunkTorns             int
	NFSStalls              int
	NFSErrors              int
	WatchdogFalsePositives int
	RecoveryCrashes        int
}

// The shapes of the drawn faults, the same in every plan (an NFSStall's
// per-packet delay is the network's, ethjtag.FaultStall).
const (
	// burstDur bounds a LinkBurst's corruption window; burstEvery is its
	// stride (every burstEvery-th frame).
	burstDur   = 50 * event.Microsecond
	burstEvery = 13
	// netSpan bounds the request index drawn for NetDrop/NetDup faults:
	// they hit one of the first netSpan management requests after Arm,
	// early enough to land in boot/launch traffic.
	netSpan = 400
	// recoveryFrom/recoveryTo bound RecoveryCrash injection times,
	// relative to the re-Arm of a recovered attempt (so relative to the
	// repartition window): restore, relaunch, and the early solve.
	recoveryFrom = 100 * event.Microsecond
	recoveryTo   = 5 * event.Millisecond
	// nfsWindow is the duration of each NFSStall/NFSError window.
	nfsWindow = 1500 * event.Microsecond
)

// Plan is a generated fault schedule.
type Plan struct {
	Seed   uint64
	Faults []Fault
	// OnFire, when set, observes each fault as it is injected.
	OnFire func(Fault)

	// armedOn/armedHostOn remember the engine of the current attempt's
	// Arm/ArmHost: re-arming on the same engine is a no-op, so a
	// recovery that is itself interrupted and retried cannot schedule
	// the surviving faults twice (or reset the counted net-fault
	// stream). A fresh engine — the next attempt's — re-arms normally.
	armedOn     *event.Engine
	armedHostOn *event.Engine
	// arms counts distinct Arm calls (attempts). RecoveryCrash faults
	// arm only from the second attempt onward.
	arms int
}

// Generate derives the fault schedule for the given seed: same seed,
// same spec, same node count — bit-identical plan. Draw order is fixed
// (kind by kind, each fault a fixed number of draws), so adding fault
// classes to a spec never perturbs the draws of the classes before it.
func Generate(seed uint64, spec Spec, nodes int) *Plan {
	if spec.To <= spec.From {
		spec.To = spec.From + event.Millisecond
	}
	s := rng.New(seed, 0xFA17)
	span := uint64(spec.To - spec.From)
	drawAt := func() event.Time { return spec.From + event.Time(s.Uint64()%span) }
	drawRank := func() int { return s.Intn(nodes) }
	drawLink := func() geom.Link { return geom.AllLinks()[s.Intn(geom.NumLinks)] }

	p := &Plan{Seed: seed}
	for i := 0; i < spec.NodeCrashes; i++ {
		p.Faults = append(p.Faults, Fault{Kind: NodeCrash, At: drawAt(), Rank: drawRank()})
	}
	for i := 0; i < spec.NodeHangs; i++ {
		p.Faults = append(p.Faults, Fault{Kind: NodeHang, At: drawAt(), Rank: drawRank()})
	}
	for i := 0; i < spec.LinkDeaths; i++ {
		p.Faults = append(p.Faults, Fault{Kind: LinkDeath, At: drawAt(), Rank: drawRank(), Link: drawLink()})
	}
	for i := 0; i < spec.LinkBursts; i++ {
		p.Faults = append(p.Faults, Fault{Kind: LinkBurst, At: drawAt(), Rank: drawRank(),
			Link: drawLink(), Dur: burstDur, Every: burstEvery})
	}
	for i := 0; i < spec.NetDrops; i++ {
		p.Faults = append(p.Faults, Fault{Kind: NetDrop, Nth: 1 + s.Uint64()%netSpan})
	}
	for i := 0; i < spec.NetDups; i++ {
		p.Faults = append(p.Faults, Fault{Kind: NetDup, Nth: 1 + s.Uint64()%netSpan})
	}
	// Second-order/storage kinds draw after every first-order kind, each
	// kind a fixed number of draws: a spec that adds them reproduces the
	// first-order schedule of the spec without them, bit for bit.
	for i := 0; i < spec.ChunkCorrupts; i++ {
		p.Faults = append(p.Faults, Fault{Kind: ChunkCorrupt, At: drawAt(), Rank: drawRank(), Nth: s.Uint64()})
	}
	for i := 0; i < spec.ChunkTorns; i++ {
		p.Faults = append(p.Faults, Fault{Kind: ChunkTorn, At: drawAt(), Rank: drawRank(), Nth: s.Uint64()})
	}
	for i := 0; i < spec.NFSStalls; i++ {
		p.Faults = append(p.Faults, Fault{Kind: NFSStall, At: drawAt(), Dur: nfsWindow})
	}
	for i := 0; i < spec.NFSErrors; i++ {
		p.Faults = append(p.Faults, Fault{Kind: NFSError, At: drawAt(), Dur: nfsWindow})
	}
	for i := 0; i < spec.WatchdogFalsePositives; i++ {
		p.Faults = append(p.Faults, Fault{Kind: WatchdogFalsePositive, At: drawAt(), Rank: drawRank()})
	}
	for i := 0; i < spec.RecoveryCrashes; i++ {
		p.Faults = append(p.Faults, Fault{Kind: RecoveryCrash,
			At: recoveryFrom + event.Time(s.Uint64()%uint64(recoveryTo-recoveryFrom)), Rank: drawRank()})
	}
	return p
}

// Arm schedules every unspent fault on the engine against the given
// machine and management network. Call it once per attempt, after
// boot: the node and link faults fire at their At offsets; the net faults
// install a packet-fault hook counting management requests from this
// moment. Faults mark themselves Spent when they fire, so re-arming the
// same plan on a recovered machine replays only what has not yet
// happened.
//
// Net faults target host-to-node requests only (Dst in node address
// space): every such datagram rides the qdaemon's timeout/retry
// machinery. Unsolicited node-to-host reports have no retransmission
// layer — losing one is a real gap in the §3.1 protocol, not a
// recoverable fault, and injecting it would just wedge the run.
//
// Each fault is two events at the same plan time: the injection, then
// the plan's own bookkeeping (Spent and OnFire). A plan strikes an
// unsharded machine only: Arm panics on a sharded one.
//
// Arm is idempotent per attempt: a second call with the same engine —
// a recovery that was itself interrupted and re-entered — is a no-op,
// so surviving faults are never scheduled twice and the counted
// net-fault stream keeps its position. A fresh engine re-arms.
func (p *Plan) Arm(eng *event.Engine, m *machine.Machine, net *ethjtag.Network) {
	if m.Cluster() != nil {
		panic("faultplan: Arm on a sharded machine (fault injection is unsharded)")
	}
	if p.armedOn == eng {
		return
	}
	p.armedOn = eng
	p.arms++
	base := eng.Now()
	for i := range p.Faults {
		f := &p.Faults[i]
		if f.Spent {
			continue
		}
		switch f.Kind {
		case NetDrop, NetDup, NFSStall, NFSError:
			continue // handled by the composite hook below
		case ChunkCorrupt, ChunkTorn, WatchdogFalsePositive:
			continue // host-plane faults: see ArmHost
		case RecoveryCrash:
			// A second-order death: scheduled relative to the recovery
			// that follows the first one, so it stays down until the
			// plan is re-armed on a recovered machine.
			if p.arms < 2 {
				continue
			}
		}
		// Clamp the victim rank to the (possibly smaller, repartitioned)
		// machine.
		fault := *f
		fault.Rank = f.Rank % len(m.Nodes)
		eng.At(base+f.At, func() { inject(eng, m, fault) })
		eng.At(base+f.At, func() {
			f.Spent = true
			if p.OnFire != nil {
				p.OnFire(fault)
			}
		})
	}
	p.armNetFaults(eng, base, net)
}

// Host is the storage/operator plane of the machine's host: the
// surfaces the host-side faults strike. The chaos driver implements it
// over the qdaemon's FS map and watchdog; each method runs on the
// arming (host) engine at the fault's scheduled time.
type Host interface {
	// CorruptChunk flips one bit, selected by sel, in the newest stored
	// checkpoint chunk belonging to rank, reporting whether such a
	// chunk existed (a miss leaves the fault unspent, to retry on the
	// next attempt once a chunk has been written).
	CorruptChunk(rank int, sel uint64) bool
	// TearChunk truncates the newest stored chunk belonging to rank at
	// an offset selected by sel, reporting whether a chunk existed.
	TearChunk(rank int, sel uint64) bool
	// SuspectNode files a spurious death report for rank with the
	// watchdog (which must probe before isolating).
	SuspectNode(rank int)
}

// ArmHost schedules the host-plane faults (ChunkCorrupt, ChunkTorn,
// WatchdogFalsePositive) against the given host surface on the arming
// engine — the one the host FS and watchdog live on. Call it after
// Arm, once per attempt; like Arm it is idempotent per engine. Chunk
// faults that find no chunk to strike stay unspent and replay on the
// next attempt.
func (p *Plan) ArmHost(eng *event.Engine, nodes int, h Host) {
	if h == nil || p.armedHostOn == eng {
		return
	}
	p.armedHostOn = eng
	base := eng.Now()
	for i := range p.Faults {
		f := &p.Faults[i]
		if f.Spent {
			continue
		}
		switch f.Kind {
		case ChunkCorrupt, ChunkTorn, WatchdogFalsePositive:
		default:
			continue
		}
		rank := f.Rank % nodes
		eng.At(base+f.At, func() {
			if f.Spent {
				return
			}
			switch f.Kind {
			case ChunkCorrupt:
				if !h.CorruptChunk(rank, f.Nth) {
					return
				}
			case ChunkTorn:
				if !h.TearChunk(rank, f.Nth) {
					return
				}
			case WatchdogFalsePositive:
				h.SuspectNode(rank)
			}
			f.Spent = true
			if p.OnFire != nil {
				ff := *f
				ff.Rank = rank
				p.OnFire(ff)
			}
		})
	}
}

// inject applies one node/link fault to rank f.Rank of the machine;
// a LinkBurst's end is an event on eng.
func inject(eng *event.Engine, m *machine.Machine, f Fault) {
	switch f.Kind {
	case NodeCrash, RecoveryCrash:
		m.Nodes[f.Rank].Crash()
	case NodeHang:
		m.Nodes[f.Rank].Hang()
	case LinkDeath:
		m.Wire(f.Rank, f.Link).Kill()
	case LinkBurst:
		w := m.Wire(f.Rank, f.Link)
		w.SetFault(hssl.FlipBitEvery(f.Every))
		eng.After(f.Dur, func() { w.SetFault(nil) })
	}
}

// armNetFaults installs one composite management-network fault hook
// covering every unspent NetDrop/NetDup rule plus the NFS-plane
// windows (NFSStall/NFSError). The counted drop/dup stream judges only
// host-to-node requests; NFS windows judge only NFS-shim packets
// (which travel node-to-host), so the two rule sets never interact.
func (p *Plan) armNetFaults(eng *event.Engine, base event.Time, net *ethjtag.Network) {
	if net == nil {
		return // no management network attached (bare-machine runs)
	}
	var rules, windows []*Fault
	for i := range p.Faults {
		f := &p.Faults[i]
		if f.Spent {
			continue
		}
		switch f.Kind {
		case NetDrop, NetDup:
			rules = append(rules, f)
		case NFSStall, NFSError:
			windows = append(windows, f)
		}
	}
	if len(rules) == 0 && len(windows) == 0 {
		net.Fault = nil
		return
	}
	for _, w := range windows {
		w := w
		// The window announces itself at its opening edge and marks
		// itself spent at its closing edge; an attempt that ends before
		// the close replays the whole window on the next Arm (the spent
		// timer dies with the attempt's engine). The hook below only
		// judges packets strictly inside the open window.
		if p.OnFire != nil {
			eng.At(base+w.At, func() {
				if !w.Spent && p.OnFire != nil {
					p.OnFire(*w)
				}
			})
		}
		eng.At(base+w.At+w.Dur, func() { w.Spent = true })
	}
	var sent uint64
	net.Fault = func(pkt *ethjtag.Packet) ethjtag.FaultVerdict {
		if pkt.Port == ethjtag.PortNFS {
			now := net.Now()
			for _, w := range windows {
				if w.Spent || now < base+w.At || now >= base+w.At+w.Dur {
					continue
				}
				if w.Kind == NFSError {
					return ethjtag.FaultDrop
				}
				return ethjtag.FaultStall
			}
			return ethjtag.FaultNone
		}
		if pkt.Dst < ethjtag.NodeAddrBase {
			return ethjtag.FaultNone // node-to-host report: out of scope
		}
		sent++
		for _, f := range rules {
			if f.Spent || f.Nth != sent {
				continue
			}
			f.Spent = true
			if p.OnFire != nil {
				p.OnFire(*f)
			}
			if f.Kind == NetDrop {
				return ethjtag.FaultDrop
			}
			return ethjtag.FaultDup
		}
		return ethjtag.FaultNone
	}
}

// Remaining counts unspent faults.
func (p *Plan) Remaining() int {
	n := 0
	for i := range p.Faults {
		if !p.Faults[i].Spent {
			n++
		}
	}
	return n
}

// Digest fingerprints the plan (FNV-1a over every fault's schedule
// fields): two runs from the same seed must agree here before their
// machines even boot.
func (p *Plan) Digest() uint64 {
	h := rng.NewFold()
	h.Mix(p.Seed)
	for _, f := range p.Faults {
		h.Mix(uint64(f.Kind))
		h.Mix(uint64(f.At))
		h.Mix(uint64(f.Rank))
		h.Mix(uint64(f.Link.Dim)<<1 | uint64(f.Link.Dir))
		h.Mix(uint64(f.Dur))
		h.Mix(f.Every)
		h.Mix(f.Nth)
	}
	return uint64(h)
}

func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fault plan seed %d (digest %#x):\n", p.Seed, p.Digest())
	for _, f := range p.Faults {
		spent := ""
		if f.Spent {
			spent = " [spent]"
		}
		fmt.Fprintf(&b, "  %s%s\n", f, spent)
	}
	return b.String()
}
