// Package machine assembles QCDOC nodes into a complete computer: the
// six-dimensional torus of HSSL wires (Figure 2's red mesh), the slow
// global clock that paces partition-interrupt sampling, software
// partitioning and dimension folding (§3.1), the packaging hierarchy of
// §2.4 (two nodes per daughterboard, 64-node motherboards as 2^6
// hypercubes, eight motherboards per crate, two crates per water-cooled
// rack), and the end-of-run link-checksum audit of §2.2.
package machine

import (
	"fmt"
	"runtime"
	"strconv"

	"qcdoc/internal/event"
	"qcdoc/internal/geom"
	"qcdoc/internal/hssl"
	"qcdoc/internal/node"
	"qcdoc/internal/scu"
	"qcdoc/internal/telemetry"
)

// Config describes a machine build.
type Config struct {
	// Shape is the six-dimensional torus, e.g. 8x4x4x2x2x2 for the
	// 1024-node machine of §4.
	Shape geom.Shape
	// Clock is the processor/link clock (§4 ran 360, 420, 450 MHz
	// machines against a 500 MHz target).
	Clock event.Hz
	// Shards selects event-engine sharding for conservative parallel
	// simulation (DESIGN.md §13): false builds the classic single-engine
	// machine; ShardAuto partitions along the packaging hierarchy
	// (daughterboards below a crate's worth of nodes, whole motherboards
	// at scale). The shard plan is a pure function of Shape — never of
	// Workers — which is what makes outcome digests worker-count-invariant.
	// A sharded machine runs halo exchanges and global sums only: a
	// partition interrupt or Engine.Stop on it panics.
	Shards bool
	// Workers bounds how many shards execute concurrently (0 = one per
	// available CPU). Sharded builds need a fresh engine (no events run
	// yet); Build panics otherwise.
	Workers int
	// Pool, when set, recycles ring slabs across machine builds and
	// shares the shard plan between machines of identical topology
	// (fleet substrate, DESIGN.md §14). Nil disables pooling.
	Pool *Pool
}

// ShardAuto selects the packaging-derived shard plan.
const ShardAuto = true

// DefaultConfig returns the paper's target configuration for a given
// shape.
func DefaultConfig(shape geom.Shape) Config {
	return Config{
		Shape: shape,
		Clock: 500 * event.MHz,
	}
}

// Machine is a built QCDOC.
type Machine struct {
	Eng   *event.Engine
	Cfg   Config
	Nodes []*node.Node

	// Reg is the telemetry registry: empty and disabled until
	// EnableTelemetry registers the machine's sources (see telemetry.go).
	Reg *telemetry.Registry

	torus torus // every node's outbound wires

	booted      bool
	telemetryOn bool // the machine's sources are on Reg

	// Global clock state for partition-interrupt windows.
	windowPeriod event.Time
	clockArmed   bool

	// Sharding state (nil on a single-engine build). shardOf maps a node
	// rank to its shard.
	cluster *event.Cluster
	shardOf []int
}

// Build constructs the machine: nodes, torus wiring, and SCU attachment.
// Nothing is powered yet; call Boot (or BootFast) next.
func Build(eng *event.Engine, cfg Config) *Machine {
	if !cfg.Shape.Valid() {
		panic(fmt.Sprintf("machine: invalid shape %v", cfg.Shape))
	}
	if cfg.Clock == 0 {
		cfg.Clock = 500 * event.MHz
	}
	m := &Machine{Eng: eng, Cfg: cfg}
	v := cfg.Shape.Volume()
	m.buildCluster(eng, cfg, v)
	// The nodes, with their memory, SCU and application thread, are one slab.
	nodes := make([]node.Node, v)
	m.Nodes = make([]*node.Node, v)
	for r := range nodes {
		nodes[r].Init(m.NodeEngine(r), r, cfg.Shape.CoordOf(r), cfg.Clock)
		m.Nodes[r] = &nodes[r]
	}
	// One outbound wire per (node, link), wire id = rank*NumLinks +
	// LinkIndex, in one slab, its ring slot id of k frames in another.
	// Link l's inbound wire is the neighbour's outbound wire on l's
	// opposite; its transmit half lives on the sender's shard.
	m.torus.wires = make([]hssl.Wire, v*geom.NumLinks)
	k, slab := cfg.Pool.slab(len(m.torus.wires))
	m.torus.slab = slab
	for id := range m.torus.wires {
		r, l := id/geom.NumLinks, geom.LinkAt(id%geom.NumLinks)
		nb := cfg.Shape.Rank(cfg.Shape.Neighbor(cfg.Shape.CoordOf(r), l.Dim, l.Dir))
		w := &m.torus.wires[id]
		w.InitBetween(m.NodeEngine(r), m.NodeEngine(nb), &m.torus, id, cfg.Clock, hssl.DefaultPropagation, slab[k*id:k*id+k:k*id+k])
		m.Nodes[r].SCU.AttachLink(l, w, m.Wire(nb, l.Opposite()))
	}
	// Window period: long enough for a partition interrupt to flood the
	// whole machine before sampling (§2.2) — diameter hops of a 2-byte
	// frame plus dispatch, with a 2x guard.
	hop := cfg.Clock.Cycles(16) + hssl.DefaultPropagation
	m.windowPeriod = max(2*event.Time(cfg.Shape.Diameter()+1)*hop, 25*event.Nanosecond)
	// Arm the sampling clock whenever any SCU raises a partition
	// interrupt. The clock samples every node at once, which no shard
	// may do, so a sharded machine refuses the interrupt instead.
	arm := m.armClock
	if m.cluster != nil {
		arm = refusePartIRQ
	}
	for _, n := range m.Nodes {
		n.SCU.WindowArm = arm
	}
	m.Reg = telemetry.New()
	return m
}

// buildCluster partitions the machine's ranks into shard engines when
// cfg.Shards is set. Contiguous rank blocks follow the packaging
// hierarchy: ranks 2k and 2k+1 share a daughterboard, blocks of 64 a
// motherboard.
func (m *Machine) buildCluster(eng *event.Engine, cfg Config, v int) {
	if !cfg.Shards {
		return // single engine
	}
	per := NodesPerDaughterboard
	if v >= NodesPerMotherboard*MotherboardsPerCrate {
		per = NodesPerMotherboard
	}
	if per >= v {
		return // one board: a single engine
	}
	n := (v + per - 1) / per
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	look := hssl.MinLatency(cfg.Clock, hssl.DefaultPropagation)
	m.cluster = event.Clusterize(eng, n, workers, look)
	// The plan is a pure function of Shape; a pooled build shares one
	// immutable copy across all machines of that topology.
	m.shardOf = cfg.Pool.shardPlan(cfg.Shape, per)
}

// Cluster returns the shard cluster, or nil on a single-engine build.
func (m *Machine) Cluster() *event.Cluster { return m.cluster }

// NodeEngine returns the shard engine that owns a node rank (the
// machine engine on a single-engine build).
func (m *Machine) NodeEngine(rank int) *event.Engine {
	if m.cluster == nil {
		return m.Eng
	}
	return m.cluster.Shard(m.shardOf[rank])
}

// NumNodes returns the machine size.
func (m *Machine) NumNodes() int { return len(m.Nodes) }

// WindowPeriod is the partition-interrupt sampling window.
func (m *Machine) WindowPeriod() event.Time { return m.windowPeriod }

// Wire returns the outbound wire of a node's link (for fault injection
// and statistics in tests and experiments).
func (m *Machine) Wire(rank int, l geom.Link) *hssl.Wire {
	return &m.torus.wires[rank*geom.NumLinks+geom.LinkIndex(l)]
}

// TrainLinks trains every HSSL link, all nodes in parallel with each
// node's links in sequence, as the hardware does out of reset (§2.2): a
// wire's training event starts the next one's (torus.WireTrained). It
// runs the engine until training completes.
func (m *Machine) TrainLinks() error {
	for r := range m.Nodes {
		m.torus.wires[r*geom.NumLinks].Train()
	}
	if err := m.Eng.RunAll(); err != nil {
		return fmt.Errorf("machine: link training failed: %w", err)
	}
	return nil
}

// Boot is the fast bring-up used by benchmarks and most tests: train the
// links, then walk every node through the boot protocol directly. The
// packet-level protocol (JTAG load over Ethernet, run-kernel download,
// §2.3/§3.1) lives in internal/qdaemon; use qdaemon.Daemon.BootAll for
// the full path.
func (m *Machine) Boot() error {
	if err := m.TrainLinks(); err != nil {
		return err
	}
	for _, n := range m.Nodes {
		// Minimal stand-in for the JTAG code load.
		n.LoadBootWord(0, 0x60000000)
		if err := n.StartBootKernel(); err != nil {
			return err
		}
		if err := n.StartRunKernel(); err != nil {
			return err
		}
	}
	m.booted = true
	return nil
}

// MarkBooted records that the full boot protocol (driven externally by
// the qdaemon) has completed, enabling SPMD job launch.
func (m *Machine) MarkBooted() { m.booted = true }

// armClock schedules a partition-interrupt sampling tick if none is
// pending (single-engine build).
func (m *Machine) armClock() {
	if m.clockArmed {
		return
	}
	m.clockArmed = true
	m.Eng.After(m.windowPeriod, m.windowTick)
}

func (m *Machine) windowTick() {
	m.clockArmed = false
	again := false
	for _, n := range m.Nodes {
		n.SCU.WindowTick()
		if n.SCU.PartIRQPending() != n.SCU.PartIRQStatus() {
			again = true
		}
	}
	if again {
		m.armClock()
	}
}

// refusePartIRQ is every SCU's WindowArm on a sharded machine.
func refusePartIRQ() {
	panic("machine: partition interrupt on a sharded machine (the global sampling clock is unsharded)")
}

// RunSPMD starts the same program on every node (the machine's natural
// mode: §1's trivial decomposition) and runs the simulation until all
// application threads finish. It returns the first application error.
func (m *Machine) RunSPMD(name string, prog func(rank int) node.Program) error {
	if !m.booted {
		return fmt.Errorf("machine: not booted")
	}
	for r, n := range m.Nodes {
		if err := n.RunProgram(name, prog(r)); err != nil {
			return err
		}
	}
	if err := m.Eng.RunAll(); err != nil {
		return err
	}
	for _, n := range m.Nodes {
		done, err := n.AppDone()
		if !done {
			return fmt.Errorf("machine: %s did not finish", n)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// ProgramEnd returns the simulated time at which the last rank returned
// from its program. The engine's clock reads later: RunSPMD drains the
// queue, and the last event in it is a recovery timer with nothing to do.
func (m *Machine) ProgramEnd() (end event.Time) {
	for _, n := range m.Nodes {
		end = max(end, n.AppEnd())
	}
	return end
}

// VerifyChecksums performs the §2.2 end-of-calculation audit: for every
// link, the transmit-side checksum must equal the receive-side checksum
// kept by the neighbour. It returns the number of links checked.
func (m *Machine) VerifyChecksums() (int, error) {
	checked := 0
	for r, n := range m.Nodes {
		c := m.Cfg.Shape.CoordOf(r)
		for i := 0; i < geom.NumLinks; i++ {
			l := geom.LinkAt(i)
			nb := m.Cfg.Shape.Rank(m.Cfg.Shape.Neighbor(c, l.Dim, l.Dir))
			tx, _ := n.SCU.Checksums(l)
			_, rx := m.Nodes[nb].SCU.Checksums(l.Opposite())
			if !tx.Equal(&rx) {
				return checked, fmt.Errorf("machine: checksum mismatch %s link %v -> node %d: tx %d words %#x, rx %d words %#x",
					n, l, nb, tx.Count(), tx.Sum(), rx.Count(), rx.Sum())
			}
			checked++
		}
	}
	return checked, nil
}

// torus is the machine's wires and their rings' slab, and their owner,
// which names them on demand and chains each node's link training.
type torus struct {
	wires []hssl.Wire
	slab  []hssl.Flight
}

// WireName names wire id as Build always has: "w", the rank, the link.
func (t *torus) WireName(id int) string {
	return "w" + strconv.Itoa(id/geom.NumLinks) + geom.LinkAt(id%geom.NumLinks).String()
}

// WireTrained starts training the node's next link.
func (t *torus) WireTrained(id int) {
	if (id+1)%geom.NumLinks != 0 {
		t.wires[id+1].Train()
	}
}

// Stats sums SCU counters over all nodes, via the counter table that is
// the single definition of the field set (scu.statsFields).
func (m *Machine) Stats() scu.Stats {
	var total scu.Stats
	for _, n := range m.Nodes {
		s := n.SCU.Stats()
		total.Add(&s)
	}
	return total
}
