// Package memsys models the QCDOC node's memory system (§2.1): 4 MBytes
// of on-chip embedded DRAM behind a prefetching controller that feeds the
// PPC 440 data cache 128 bits per processor cycle (8 GB/s at 500 MHz),
// plus an external DDR SDRAM controller on the PLB with 2.6 GB/s and up
// to 2 GB per node.
//
// The package provides two things:
//
//   - NodeMemory: the functional store — a sparse, paged 64-bit word
//     address space with EDRAM at low addresses and DDR above it, used by
//     the simulated SCU DMA engines and node programs;
//   - the timing model — sustained bandwidths per level for bulk
//     (DMA/prefetch-friendly) and compute-kernel (load-issue-limited)
//     access, with the prefetching controller's two-stream rule and page
//     miss penalties.
package memsys

import (
	"fmt"

	"qcdoc/internal/event"
)

// Level identifies which memory a kernel's working set lives in.
type Level int

const (
	// EDRAM is the 4 MB on-chip embedded DRAM.
	EDRAM Level = iota
	// DDR is the external DDR SDRAM DIMM.
	DDR
)

func (l Level) String() string {
	if l == EDRAM {
		return "EDRAM"
	}
	return "DDR"
}

// Architectural constants from §2.1.
const (
	// EDRAMBytes is the embedded DRAM capacity: 4 MBytes.
	EDRAMBytes = 4 << 20
	// EDRAMRowBytes is one EDRAM access: 1024 bits plus ECC.
	EDRAMRowBytes = 128
	// DDRBytes is the external memory per node: 128 MBytes, the smaller
	// of the two DIMM sizes the 4096-node machine carried (§4).
	DDRBytes = 128 << 20
	// PrefetchStreams is the number of concurrent contiguous streams the
	// EDRAM controller prefetches without page-miss stalls (§2.1: "the
	// EDRAM controller maintains two prefetching streams").
	PrefetchStreams = 2
)

// NodeMemory is the functional local memory of one node: EDRAM occupies
// [0, EDRAMBytes), DDR occupies [EDRAMBytes, ddrEnd). It
// implements the SCU's Memory interface. The store is sparse: each region
// is a table of fixed-size pages, a page exists once a word in it has
// been written, and everything else reads as zero — a node costs the host
// what it touches, not where its allocator starts. The EDRAM table is
// resident, and an EDRAM access reads nothing else of the struct; the DDR
// table arrives with the first DDR write. The zero value has no pages; a
// node holds its memory by value.
type NodeMemory struct {
	edram [EDRAMBytes / pageBytes]*page
	ddr   []*page
}

// ddrEnd is one past the last byte of DDR.
const ddrEnd = EDRAMBytes + DDRBytes

// pageWords is the page size in 64-bit words (4 KB). Measured, not
// configurable: DESIGN.md §9 has the numbers for this size and the two
// rejected ones.
const (
	pageWords = 512
	pageBytes = 8 * pageWords
)

type page [pageWords]uint64

// ReadWord returns the 64-bit word at byte address addr (8-aligned).
// Untouched memory reads as zero, and reading it allocates nothing.
func (m *NodeMemory) ReadWord(addr uint64) uint64 {
	if p := m.locate(addr); p != nil {
		return p[addr/8%pageWords]
	}
	return 0
}

// WriteWord stores a 64-bit word at byte address addr (8-aligned),
// installing the page that holds it on the first write.
func (m *NodeMemory) WriteWord(addr uint64, w uint64) {
	p := m.locate(addr)
	if p == nil {
		p = m.install(addr)
	}
	p[addr/8%pageWords] = w
}

// ReadWords and WriteWords are ReadWord and WriteWord over consecutive
// words, panics included, looking each page up once.
func (m *NodeMemory) ReadWords(addr uint64, dst []uint64)  { m.words(addr, dst, false) }
func (m *NodeMemory) WriteWords(addr uint64, src []uint64) { m.words(addr, src, true) }

func (m *NodeMemory) words(addr uint64, w []uint64, write bool) {
	for len(w) > 0 {
		p, n := m.locate(addr), min(len(w), pageWords-int(addr/8%pageWords), int((ddrEnd-addr)/8))
		switch {
		case write && p == nil:
			p = m.install(addr)
			fallthrough
		case write:
			copy(p[addr/8%pageWords:], w[:n])
		case p != nil:
			copy(w[:n], p[addr/8%pageWords:])
		default:
			clear(w[:n])
		}
		addr, w = addr+8*uint64(n), w[n:]
	}
}

// locate returns the page holding addr, nil if nothing has been written
// to it, and panics on an address no word lives at. The EDRAM case is
// small enough to inline.
func (m *NodeMemory) locate(addr uint64) *page {
	if addr%8 == 0 && addr < EDRAMBytes {
		return m.edram[addr/pageBytes]
	}
	return m.locateDDR(addr)
}

func (m *NodeMemory) locateDDR(addr uint64) *page {
	if addr%8 != 0 {
		panic(fmt.Sprintf("memsys: unaligned word access at %#x", addr))
	}
	if addr >= ddrEnd {
		panic(fmt.Sprintf("memsys: address %#x beyond installed DDR (%d bytes)", addr, DDRBytes))
	}
	if pg := (addr - EDRAMBytes) / pageBytes; pg < uint64(len(m.ddr)) {
		return m.ddr[pg]
	}
	return nil
}

// install allocates the page holding addr, and the DDR table before the
// first DDR page.
func (m *NodeMemory) install(addr uint64) *page {
	p := new(page)
	if addr < EDRAMBytes {
		m.edram[addr/pageBytes] = p
		return p
	}
	if m.ddr == nil {
		m.ddr = make([]*page, DDRBytes/pageBytes)
	}
	m.ddr[(addr-EDRAMBytes)/pageBytes] = p
	return p
}

// LevelOf reports which memory a byte address falls in.
func LevelOf(addr uint64) Level {
	if addr < EDRAMBytes {
		return EDRAM
	}
	return DDR
}

// DDRBase is the first byte address of external memory.
const DDRBase uint64 = EDRAMBytes

// The timing model. Two bandwidth regimes per level:
//
//   - Bus bandwidth: what the hardware datapath moves for bulk,
//     prefetch-friendly access (DMA, streaming).
//   - Kernel bandwidth: what a compute kernel's load/store pipeline
//     sustains through the data cache, including issue limits and
//     load-use stalls. Calibrated against the paper's measured solver
//     efficiencies (see internal/perf).
//
// Both are bytes per processor cycle, so a model clocked at 360 or
// 420 MHz keeps the per-cycle rates and scales the per-second ones.
const (
	// EDRAMBusBPC is the EDRAM datapath: 16 B/cycle, 8 GB/s at 500 MHz
	// (§2.1).
	EDRAMBusBPC = 16
	// DDRBusBPC is the DDR controller: 5.2 B/cycle, 2.6 GB/s at 500 MHz
	// (§2.1).
	DDRBusBPC = 5.2
	// EDRAMKernelBPC is calibrated: load-issue and stall limited.
	EDRAMKernelBPC = 1.75
	// DDRKernelBPC is calibrated: it gives ~30% Wilson efficiency from
	// DDR (§4).
	DDRKernelBPC = 1.31
	// PageMissCycles is charged per row activation when more concurrent
	// streams are in flight than the prefetcher covers.
	PageMissCycles = 11
)

// BusBPC returns the bulk bytes-per-cycle for a level.
func BusBPC(l Level) float64 {
	if l == EDRAM {
		return EDRAMBusBPC
	}
	return DDRBusBPC
}

// KernelBPC returns the compute-kernel bytes-per-cycle for a level.
func KernelBPC(l Level) float64 {
	if l == EDRAM {
		return EDRAMKernelBPC
	}
	return DDRKernelBPC
}

// BusBandwidth returns the peak datapath bandwidth in bytes/second at
// the given clock.
func BusBandwidth(l Level, clock event.Hz) float64 {
	return BusBPC(l) * float64(clock)
}

// StreamCycles models a bulk streaming access of the given byte count
// with nStreams concurrent address streams: at or under the prefetcher's
// stream count the transfer runs at bus speed; beyond it, every row
// activation pays the page-miss penalty (§2.1's motivation for the
// two-stream prefetcher: "for an operation involving a(x) × b(x) ... the
// EDRAM controller will fetch data without suffering excessive page miss
// overheads").
func StreamCycles(l Level, bytes int, nStreams int) float64 {
	base := float64(bytes) / BusBPC(l)
	if nStreams <= PrefetchStreams {
		return base
	}
	rows := float64(bytes) / EDRAMRowBytes
	return base + rows*PageMissCycles
}

// KernelCycles models a compute kernel moving the given bytes through the
// load/store pipeline.
func KernelCycles(l Level, bytes int) float64 {
	return float64(bytes) / KernelBPC(l)
}

// FitsEDRAM reports whether a working set of the given bytes is
// EDRAM-resident (§4: "for most of the fermion formulations, a 6^4 local
// volume still fits in our 4 Megabytes of embedded memory").
func FitsEDRAM(bytes int) bool { return bytes <= EDRAMBytes }

// Counters is the memory-system traffic account a node keeps when
// telemetry is enabled: bytes moved per level, plus the prefetcher's view
// of each access — streams the two-stream controller covered versus row
// activations that paid the page-miss penalty. Plain fields, no events:
// Note is called from the (single-threaded) simulation at the moment the
// timing model is consulted, and the registry reads the fields only at
// snapshot time.
type Counters struct {
	EDRAMBytes   uint64
	DDRBytes     uint64
	PrefetchHits uint64
	PageMisses   uint64
}

// Note accounts one modelled access, mirroring StreamCycles'
// classification: at or under PrefetchStreams the access rode the
// prefetcher (one hit per access); beyond it every row activation was a
// page miss. nStreams of 0 (irregular/gather access, charged through the
// kernel-bandwidth path) counts bytes only.
func (c *Counters) Note(l Level, bytes, nStreams int) {
	if l == EDRAM {
		c.EDRAMBytes += uint64(bytes)
	} else {
		c.DDRBytes += uint64(bytes)
	}
	switch {
	case nStreams == 0:
	case nStreams <= PrefetchStreams:
		c.PrefetchHits++
	default:
		c.PageMisses += uint64(bytes) / EDRAMRowBytes
	}
}

// Add accumulates o into c.
func (c *Counters) Add(o *Counters) {
	c.EDRAMBytes += o.EDRAMBytes
	c.DDRBytes += o.DDRBytes
	c.PrefetchHits += o.PrefetchHits
	c.PageMisses += o.PageMisses
}

// Each calls emit for every counter, in a stable order.
func (c *Counters) Each(emit func(name string, v uint64)) {
	emit("edram_bytes", c.EDRAMBytes)
	emit("ddr_bytes", c.DDRBytes)
	emit("prefetch_hits", c.PrefetchHits)
	emit("page_misses", c.PageMisses)
}
