package node

import (
	"qcdoc/internal/geom"
	"qcdoc/internal/memsys"
	"qcdoc/internal/ppc440"
	"qcdoc/internal/scu"
	"qcdoc/internal/telemetry"
)

// This file is the node's half of the telemetry layer (DESIGN.md §10):
// an optional counter block the machine switches on, and a read-only
// "telemetry window" of peekable words through which the host fetches
// those counters over the Ethernet/JTAG side network — the RISCWatch
// path of §2.3, which is how the real machine's host monitored nodes
// without involving the compute fabric.
//
// The zero-perturbation contract: counting is plain field arithmetic on
// paths the simulation already executes, schedules no events, and when
// disabled (ctr == nil) costs one pointer test. Either way the engine's
// event stream is bit-identical.

// Counters is the per-node activity account kept when telemetry is
// enabled: what the CPU did (kernels retired, flops, which pipeline
// bounded each kernel and by how many cycles), what the memory system
// moved, and what the collectives layer asked for.
type Counters struct {
	// Kernels is the number of compute kernels retired.
	Kernels uint64
	// Flops is the useful floating point work retired.
	Flops float64
	// ComputeBound / MemoryBound count kernels by which pipeline set
	// their critical path (compute wins ties: the FPU was busy the whole
	// time).
	ComputeBound uint64
	MemoryBound  uint64
	// ComputeCycles / MemoryCycles are the per-pipeline demand summed
	// over kernels; their max per kernel is the charged time, so the gap
	// between the two is the stall breakdown.
	ComputeCycles float64
	MemoryCycles  float64
	// CyclesByKernel attributes charged cycles to kernel names.
	CyclesByKernel map[string]float64
	// Mem is the memory-system traffic account.
	Mem memsys.Counters
	// Collectives and solver activity (incremented by qmp/solver hooks).
	GlobalSums       uint64
	Broadcasts       uint64
	Barriers         uint64
	SolverIterations uint64
	// Latency distributions (picoseconds of simulated time), recorded by
	// the qmp, solver and checkpoint hooks on the same nil-gated paths as
	// the scalar counters; machine.Telemetry merges them machine-wide.
	GsumTime  telemetry.Histogram
	IterTime  telemetry.Histogram
	CkptWrite telemetry.Histogram
}

// EnableCounters switches the node's telemetry counters on and returns
// the block. Idempotent; enabling mid-run starts counting from zero at
// that point.
func (n *Node) EnableCounters() *Counters {
	if n.ctr == nil {
		n.ctr = &Counters{CyclesByKernel: make(map[string]float64)}
	}
	return n.ctr
}

// Counters returns the node's counter block, or nil when telemetry is
// disabled. Callers on hot paths test for nil and skip — that test is
// the entire disabled-mode overhead.
func (n *Node) Counters() *Counters { return n.ctr }

// noteKernel accounts one kernel execution. Called exactly once per
// Compute, before the time is charged, so memory traffic is
// attributed here and nowhere else (the timing model's StreamCycles is
// also called from DMA paths the SCU accounts separately).
func (n *Node) noteKernel(k ppc440.KernelCost) {
	c := n.ctr
	if c == nil {
		return
	}
	c.Kernels++
	c.Flops += k.Flops
	comp := n.CPU.ComputeCycles(k)
	mem := n.CPU.MemoryCycles(k)
	c.ComputeCycles += comp
	c.MemoryCycles += mem
	charged := comp
	if mem > comp {
		charged = mem
		c.MemoryBound++
	} else {
		c.ComputeBound++
	}
	name := k.Name
	if name == "" {
		name = "anon"
	}
	c.CyclesByKernel[name] += charged
	// Mirror MemoryCycles' classification: prefetch-covered streaming
	// versus gather-style access.
	streams := k.Streams
	if streams > memsys.PrefetchStreams {
		streams = memsys.PrefetchStreams + 1
	}
	c.Mem.Note(k.Level, int(k.Bytes()), streams)
}

// Each calls emit for every scalar counter in the block, in a stable
// order, with snake_case names (float counters are truncated — the
// registry's currency is uint64 words, matching what the peek window
// serves).
func (c *Counters) Each(emit func(name string, v uint64)) {
	emit("kernels", c.Kernels)
	emit("flops", uint64(c.Flops))
	emit("compute_bound", c.ComputeBound)
	emit("memory_bound", c.MemoryBound)
	emit("compute_cycles", uint64(c.ComputeCycles))
	emit("memory_cycles", uint64(c.MemoryCycles))
	emit("global_sums", c.GlobalSums)
	emit("broadcasts", c.Broadcasts)
	emit("barriers", c.Barriers)
	emit("solver_iterations", c.SolverIterations)
	c.Mem.Each(func(name string, v uint64) { emit("mem/"+name, v) })
}

// Telemetry window: a read-only MMIO region at the top of the 64-bit
// address space, outside any installed memory, served word-by-word to
// JTAG peeks (qdaemon routes OpReadWord at these addresses here instead
// of to NodeMemory). Layout, in 64-bit words from TelemetryBase:
//
//	word 0                      TelemetryMagic
//	word 1                      node lifecycle state
//	word 2                      number of links (geom.NumLinks)
//	word 3                      counters per link (scu.NumStats())
//	word 4                      heartbeat counter (see Node.TickHeartbeat)
//	word 5                      failed-link bitmask (scu.FailedLinks)
//	words 8..8+NumStats         aggregate SCU stats, table order
//	words 32+L*16 .. +NumStats  per-link SCU stats for link index L
const (
	TelemetryBase uint64 = 0xFFFF_0000_0000_0000

	TelemMagicWord     = 0
	TelemStateWord     = 1
	TelemLinksWord     = 2
	TelemFieldsWord    = 3
	TelemHeartbeatWord = 4
	TelemFailedWord    = 5
	TelemAggWord       = 8
	TelemLinkWord      = 32
	TelemLinkStride    = 16
)

// TelemetryMagic identifies the window ("QCDTELEM" truncated to what
// fits): a host peeking word 0 can verify it is talking to a telemetry
// window and not uninitialized memory.
const TelemetryMagic uint64 = 0x5143_4454_454C_4D30 // "QCDTELM0"

// TelemetryAddr returns the byte address of telemetry word i.
func TelemetryAddr(word int) uint64 { return TelemetryBase + uint64(word)*8 }

// ReadTelemetryWord serves one peek into the telemetry window. Reads of
// unmapped words return zero, like untouched memory. This is a pure
// read of current counter state — no events, no side effects — so a
// host polling it perturbs nothing but the side-network traffic the
// poll itself is.
func (n *Node) ReadTelemetryWord(addr uint64) uint64 {
	word := int((addr - TelemetryBase) / 8)
	switch word {
	case TelemMagicWord:
		return TelemetryMagic
	case TelemStateWord:
		return uint64(n.state)
	case TelemLinksWord:
		return uint64(geom.NumLinks)
	case TelemFieldsWord:
		return uint64(scu.NumStats())
	case TelemHeartbeatWord:
		return n.heartbeat
	case TelemFailedWord:
		return n.SCU.FailedLinks()
	}
	if word >= TelemAggWord && word < TelemAggWord+scu.NumStats() {
		s := n.SCU.Stats()
		return s.Value(word - TelemAggWord)
	}
	if word >= TelemLinkWord && word < TelemLinkWord+geom.NumLinks*TelemLinkStride {
		li := (word - TelemLinkWord) / TelemLinkStride
		f := (word - TelemLinkWord) % TelemLinkStride
		if f >= scu.NumStats() {
			return 0
		}
		s := n.SCU.LinkStats(geom.AllLinks()[li])
		return s.Value(f)
	}
	return 0
}

// IsTelemetryAddr reports whether a peek address falls in the telemetry
// window.
func IsTelemetryAddr(addr uint64) bool { return addr >= TelemetryBase }
