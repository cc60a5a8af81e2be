package node

import (
	"testing"

	"qcdoc/internal/event"
	"qcdoc/internal/geom"
	"qcdoc/internal/memsys"
	"qcdoc/internal/ppc440"
	"qcdoc/internal/scu"
)

// compute charges the kernels to the node from a program, in order.
func compute(t *testing.T, eng *event.Engine, n *Node, ks ...ppc440.KernelCost) {
	t.Helper()
	n.ForceReady()
	n.RunProgram("compute", func(ctx *Ctx) {
		for _, k := range ks {
			n.Compute(ctx.P, k)
		}
	})
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
}

func TestCountersDisabledByDefault(t *testing.T) {
	eng, n := testNode(t)
	if n.Counters() != nil {
		t.Fatal("counters on before EnableCounters")
	}
	// Compute with counters disabled must work and count nothing.
	compute(t, eng, n, ppc440.KernelCost{Name: "k", Flops: 100, FPUOps: 50})
	if n.Counters() != nil {
		t.Fatal("counters appeared spontaneously")
	}
}

func TestNoteKernelClassification(t *testing.T) {
	eng, n := testNode(t)
	c := n.EnableCounters()
	if c == nil || n.Counters() != c || n.EnableCounters() != c {
		t.Fatal("EnableCounters not idempotent")
	}
	// Compute-bound: lots of FPU work, almost no data.
	cb := ppc440.KernelCost{Name: "dirac", Flops: 1000, FPUOps: 500, LoadBytes: 8, Streams: 1, Level: memsys.EDRAM}
	// Memory-bound streaming kernel covered by the prefetcher.
	mb := ppc440.KernelCost{Name: "axpy", Flops: 10, FPUOps: 5, LoadBytes: 4096, StoreBytes: 2048, Streams: 2, Level: memsys.EDRAM}
	// Gather-style kernel with more streams than the prefetcher covers.
	gather := ppc440.KernelCost{Name: "gather", Flops: 10, FPUOps: 5, LoadBytes: 1280, Streams: 3, Level: memsys.DDR}
	compute(t, eng, n, cb, mb, gather)
	if c.Kernels != 3 || c.Flops != 1020 {
		t.Fatalf("kernels %d flops %g", c.Kernels, c.Flops)
	}
	if c.ComputeBound != 1 || c.MemoryBound != 2 {
		t.Fatalf("bound split %d/%d", c.ComputeBound, c.MemoryBound)
	}
	// Per-kernel cycles: the charged (max) pipeline, matching the CPU
	// model exactly.
	for _, k := range []ppc440.KernelCost{cb, mb, gather} {
		want := n.CPU.KernelCycles(k)
		if got := c.CyclesByKernel[k.Name]; got != want {
			t.Fatalf("%s cycles = %g, want %g", k.Name, got, want)
		}
	}
	// Memory traffic by level, and the prefetcher's view of it.
	if c.Mem.EDRAMBytes != 8+4096+2048 || c.Mem.DDRBytes != 1280 {
		t.Fatalf("mem bytes %d/%d", c.Mem.EDRAMBytes, c.Mem.DDRBytes)
	}
	if c.Mem.PrefetchHits != 2 {
		t.Fatalf("prefetch hits %d", c.Mem.PrefetchHits)
	}
	if want := uint64(1280 / memsys.EDRAMRowBytes); c.Mem.PageMisses != want {
		t.Fatalf("page misses %d, want %d", c.Mem.PageMisses, want)
	}
	// Stall breakdown sums are the per-pipeline demand.
	if c.ComputeCycles <= 0 || c.MemoryCycles <= 0 {
		t.Fatalf("cycle sums %g/%g", c.ComputeCycles, c.MemoryCycles)
	}
}

func TestTelemetryWindow(t *testing.T) {
	_, n := testNode(t)
	if !IsTelemetryAddr(TelemetryBase) || IsTelemetryAddr(0x1000) {
		t.Fatal("IsTelemetryAddr")
	}
	if got := n.ReadTelemetryWord(TelemetryAddr(TelemMagicWord)); got != TelemetryMagic {
		t.Fatalf("magic = %#x", got)
	}
	if got := n.ReadTelemetryWord(TelemetryAddr(TelemStateWord)); got != uint64(Reset) {
		t.Fatalf("state = %d", got)
	}
	n.ForceReady()
	if got := n.ReadTelemetryWord(TelemetryAddr(TelemStateWord)); got != uint64(RunKernel) {
		t.Fatalf("state after boot = %d", got)
	}
	if got := n.ReadTelemetryWord(TelemetryAddr(TelemLinksWord)); got != uint64(geom.NumLinks) {
		t.Fatalf("links = %d", got)
	}
	if got := n.ReadTelemetryWord(TelemetryAddr(TelemFieldsWord)); got != uint64(scu.NumStats()) {
		t.Fatalf("fields = %d", got)
	}
	// Unmapped words (gaps and beyond the layout) read as zero.
	for _, w := range []int{4, TelemAggWord + scu.NumStats(), TelemLinkWord + geom.NumLinks*TelemLinkStride} {
		if got := n.ReadTelemetryWord(TelemetryAddr(w)); got != 0 {
			t.Fatalf("word %d = %#x, want 0", w, got)
		}
	}
	// Aggregate and per-link windows mirror the SCU counters (all zero
	// on an idle node; non-zero agreement is covered by the qdaemon
	// hwstat test over the network).
	agg := n.SCU.Stats()
	for i := 0; i < scu.NumStats(); i++ {
		if got := n.ReadTelemetryWord(TelemetryAddr(TelemAggWord + i)); got != agg.Value(i) {
			t.Fatalf("agg word %d = %d", i, got)
		}
	}
}
