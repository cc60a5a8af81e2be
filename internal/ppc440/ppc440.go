// Package ppc440 models the QCDOC node processor (§2.1): an IBM PPC 440
// 32-bit integer core with an attached 64-bit IEEE floating point unit
// capable of one multiply and one add per cycle — a peak of 1 Gflops at
// the 500 MHz target clock — with 32 KB instruction and data caches.
//
// The simulator does not interpret PowerPC instructions (the paper's
// results do not depend on ISA details); instead, kernels are described
// by operation counts — floating point operations, FPU issue slots, and
// bytes moved — and the model converts them to cycles. A single
// calibrated issue-efficiency constant (FPUCPI) plus the memory model's
// kernel bandwidths reproduce the paper's measured solver efficiencies;
// see internal/perf for the calibration discussion and DESIGN.md §4.
package ppc440

import (
	"qcdoc/internal/event"
	"qcdoc/internal/memsys"
)

// Cache sizes (§2.1).
const (
	ICacheBytes = 32 << 10
	DCacheBytes = 32 << 10
)

// FPU model constants.
const (
	// FlopsPerCycle is the FPU peak: one multiply and one add per cycle.
	FlopsPerCycle = 2
	// FPUCPI is the average cycles consumed per FPU issue slot in a
	// hand-tuned kernel, folding in dependency stalls, load-use bubbles
	// and loop control. Calibrated once so the Wilson Dirac kernel lands
	// at the paper's 40%-of-peak anchor; all other operators then follow
	// from their own operation counts.
	FPUCPI = 1.9
)

// CPU is the processor timing model.
type CPU struct {
	// Clock is the processor frequency. The paper's machines ran at
	// 360, 420, 450 and (target) 500 MHz (§4).
	Clock event.Hz
}

// Default returns the 500 MHz target configuration.
func Default() CPU { return At(500 * event.MHz) }

// At returns the model clocked at the given frequency.
func At(clock event.Hz) CPU {
	return CPU{Clock: clock}
}

// PeakFlops is the peak floating-point rate in flops/second (1 Gflops at
// 500 MHz).
func (c CPU) PeakFlops() float64 {
	return FlopsPerCycle * float64(c.Clock)
}

// KernelCost describes the per-invocation cost of a compute kernel in
// machine-independent counts. For lattice operators these are counts per
// site (see internal/fermion); any consistent unit works.
type KernelCost struct {
	Name string
	// Flops is the number of useful floating point operations.
	Flops float64
	// FPUOps is the number of FPU issue slots: a fused multiply-add
	// counts one slot for two flops, a lone add or multiply one slot for
	// one flop.
	FPUOps float64
	// LoadBytes and StoreBytes are the data moved through the load/store
	// pipeline.
	LoadBytes, StoreBytes float64
	// Streams is the number of concurrent read-address streams. A kernel
	// with Streams in 1..PrefetchStreams is a pure streaming operation
	// (axpy, dot, copy) that the EDRAM prefetch controller covers
	// completely, so it runs at bus bandwidth (§2.1: "for an operation
	// involving a(x) × b(x) ... the EDRAM controller will fetch data
	// without suffering excessive page miss overheads"). Zero or more
	// than PrefetchStreams means a gather-style kernel limited by the
	// load pipeline.
	Streams int
	// Level is where the working set lives.
	Level memsys.Level
	// PipelineFactor scales the compute time for the quality of the
	// hand-tuned assembly relative to the Wilson baseline (1.0). The
	// per-operator values are documented where they are defined
	// (internal/fermion) and in EXPERIMENTS.md.
	PipelineFactor float64
	// MemoryFactor scales the memory time for access-pattern efficiency
	// relative to the Wilson kernel's stride pattern (1.0): a kernel
	// whose streams the prefetcher covers better sustains a higher
	// fraction of the load pipeline. Documented with PipelineFactor.
	MemoryFactor float64
}

// Scale returns the cost multiplied by n invocations (sites).
func (k KernelCost) Scale(n float64) KernelCost {
	k.Flops *= n
	k.FPUOps *= n
	k.LoadBytes *= n
	k.StoreBytes *= n
	return k
}

// Add combines two costs executed back to back at the deeper memory
// level of the two.
func (k KernelCost) Add(o KernelCost) KernelCost {
	k.Flops += o.Flops
	k.FPUOps += o.FPUOps
	k.LoadBytes += o.LoadBytes
	k.StoreBytes += o.StoreBytes
	if o.Level > k.Level {
		k.Level = o.Level
	}
	if o.Streams > k.Streams {
		k.Streams = o.Streams
	}
	return k
}

// Bytes is the total data movement.
func (k KernelCost) Bytes() float64 { return k.LoadBytes + k.StoreBytes }

// pipelineFactor returns the factor, defaulting to 1.
func (k KernelCost) pipelineFactor() float64 {
	if k.PipelineFactor == 0 {
		return 1
	}
	return k.PipelineFactor
}

// ComputeCycles is the FPU-issue-limited time.
func (c CPU) ComputeCycles(k KernelCost) float64 {
	return k.FPUOps * FPUCPI * k.pipelineFactor()
}

// memoryFactor returns the factor, defaulting to 1.
func (k KernelCost) memoryFactor() float64 {
	if k.MemoryFactor == 0 {
		return 1
	}
	return k.MemoryFactor
}

// MemoryCycles is the load/store-limited time under the memory model:
// bus bandwidth for prefetch-covered streaming kernels, sustained kernel
// bandwidth for gather-style access.
func (c CPU) MemoryCycles(k KernelCost) float64 {
	bytes := int(k.Bytes())
	if k.Streams > 0 && k.Streams <= memsys.PrefetchStreams {
		return memsys.StreamCycles(k.Level, bytes, k.Streams) * k.memoryFactor()
	}
	return memsys.KernelCycles(k.Level, bytes) * k.memoryFactor()
}

// KernelCycles is the modelled execution time in cycles: compute and
// memory pipelines overlap (the prefetching EDRAM controller runs ahead
// of the FPU), so the kernel takes the longer of the two.
func (c CPU) KernelCycles(k KernelCost) float64 {
	comp := c.ComputeCycles(k)
	mem := c.MemoryCycles(k)
	if mem > comp {
		return mem
	}
	return comp
}

// KernelTime converts KernelCycles to simulated time.
func (c CPU) KernelTime(k KernelCost) event.Time {
	return event.Time(c.KernelCycles(k) * float64(c.Clock.Cycle()))
}

// Efficiency is the fraction of peak floating point throughput the kernel
// sustains.
func (c CPU) Efficiency(k KernelCost) float64 {
	cycles := c.KernelCycles(k)
	if cycles == 0 {
		return 0
	}
	return k.Flops / (FlopsPerCycle * cycles)
}

// SustainedFlops is the achieved flops/second.
func (c CPU) SustainedFlops(k KernelCost) float64 {
	return c.Efficiency(k) * c.PeakFlops()
}

// Execute charges the kernel's time to a running simulation process.
func (c CPU) Execute(p *event.Proc, k KernelCost) {
	p.Sleep(c.KernelTime(k))
}
