// Package perf is the analytic performance model for paper-scale QCDOC
// machines (128 to 12,288 nodes): it combines the calibrated node
// compute model (internal/ppc440 + internal/memsys), the operator cost
// descriptors (internal/fermion), and the network parameters
// (internal/scu, internal/hssl) into per-iteration solver estimates —
// sustained Gflops, efficiency, communication fractions, global-sum
// latencies and hard-scaling curves. The small-machine functional
// simulation (internal/core) validates this model's ingredients; the
// model extends them to machine sizes that are impractical to simulate
// packet by packet.
package perf

import (
	"fmt"

	"qcdoc/internal/event"
	"qcdoc/internal/fermion"
	"qcdoc/internal/lattice"
	"qcdoc/internal/memsys"
	"qcdoc/internal/ppc440"
)

// Network constants derived from §2.2.
const (
	// LinkPayloadFraction is the data fraction of a 72-bit frame.
	LinkPayloadFraction = 64.0 / 72.0
	// NearestNeighbourLatency is the memory-to-memory first-word time at
	// 500 MHz (600 ns); it scales with the clock as 300 cycles.
	NearestNeighbourLatencyCycles = 300
	// CutThroughBits is the pass-through granularity of the SCU global
	// mode: only 8 bits are assembled before forwarding.
	CutThroughBits = 8
	// WireFlight is the modelled node-to-node time of flight.
	WireFlight = 5 * event.Nanosecond
	// EthernetLatency is the conventional-network comparison point the
	// paper quotes: "5-10 us just to begin a transfer" (§2.2).
	EthernetLatencyLow  = 5 * event.Microsecond
	EthernetLatencyHigh = 10 * event.Microsecond
)

// LinkPayloadBandwidth is the per-direction per-link payload rate in
// bytes/second at the given clock (55.5 MB/s at 500 MHz).
func LinkPayloadBandwidth(clock event.Hz) float64 {
	return float64(clock) / 8 * LinkPayloadFraction
}

// AggregateLinkBandwidth is the §2.2 total: 24 connections (~1.3 GB/s at
// 500 MHz).
func AggregateLinkBandwidth(clock event.Hz) float64 {
	return 24 * LinkPayloadBandwidth(clock)
}

// TransferTime is the modelled memory-to-memory time for n 64-bit words
// to a nearest neighbour: the 600 ns first-word latency plus
// serialization of the remaining payload (E4: 24 words = 600 ns +
// 3.3 us).
func TransferTime(clock event.Hz, words int) event.Time {
	if words <= 0 {
		return 0
	}
	first := clock.Cycles(NearestNeighbourLatencyCycles)
	rest := clock.Cycles(int64(words-1) * 72)
	return first + rest
}

// GsumHops returns the hop count of a dimension-by-dimension global sum
// over a 4-D grid: Nx+Ny+Nz+Nt-4 in single mode, halved by the doubled
// SCU streams (§2.2).
func GsumHops(grid lattice.Shape4, doubled bool) int {
	hops := 0
	for _, n := range grid {
		if n <= 1 {
			continue
		}
		if doubled {
			hops += n / 2
		} else {
			hops += n - 1
		}
	}
	return hops
}

// GsumLatency models the global-sum time: per hop, the SCU pass-through
// re-launches the word after CutThroughBits plus the wire flight, and
// each dimension pays one word-assembly on entry.
func GsumLatency(clock event.Hz, grid lattice.Shape4, doubled bool) event.Time {
	hop := clock.Cycles(CutThroughBits) + WireFlight
	dims := 0
	for _, n := range grid {
		if n > 1 {
			dims++
		}
	}
	// Per dimension: inject (72-bit frame) + hops x cut-through + local
	// accumulation overhead (~50 cycles).
	perDim := clock.Cycles(72) + clock.Cycles(50)
	return event.Time(GsumHops(grid, doubled))*hop + event.Time(dims)*perDim
}

// Config describes an estimated solver run. The estimate always
// overlaps communication with compute, as the QCDOC kernels do, and
// sizes DWF at fermion.DefaultLs.
type Config struct {
	Clock event.Hz
	Grid  lattice.Shape4 // 4-D process grid (the folded machine)
	Local lattice.Shape4 // local volume per node
	Kind  fermion.OpKind
	Prec  fermion.Precision
}

// gsumDoubled: the estimate's global sums use the doubled SCU streams
// (§2.2).
const gsumDoubled = true

// DefaultConfig returns the paper's benchmark point: 4^4 local volume,
// double precision at the given clock.
func DefaultConfig(kind fermion.OpKind, grid lattice.Shape4, clock event.Hz) Config {
	return Config{
		Clock: clock,
		Grid:  grid,
		Local: lattice.Shape4{4, 4, 4, 4},
		Kind:  kind,
		Prec:  fermion.Double,
	}
}

// Estimate is the model's output for one CG iteration.
type Estimate struct {
	Level        memsys.Level
	Nodes        int
	ComputeTime  event.Time // per-node compute per iteration
	CommTime     event.Time // non-hidden halo time per iteration
	CommRawTime  event.Time // halo time before overlap
	GsumTime     event.Time // reduction time per iteration
	IterTime     event.Time
	FlopsPerIter float64 // useful flops per node per iteration
	Sustained    float64 // flops/s per node
	Efficiency   float64 // fraction of peak
	MachineGflop float64 // machine-wide sustained, Gflops
}

// slices returns the per-4D-site multiplier (Ls for DWF, 1 otherwise).
func (c Config) slices() int {
	if c.Kind == fermion.DWFKind {
		return fermion.DefaultLs
	}
	return 1
}

// WorkingLevel reports where the local working set lives.
func (c Config) WorkingLevel() memsys.Level {
	return fermion.WorkingSetLevel(c.Kind, c.Prec, c.Local.Volume()*c.slices())
}

// CGIteration estimates one CG iteration.
func CGIteration(c Config) Estimate {
	level := c.WorkingLevel()
	vLocal := float64(c.Local.Volume() * c.slices())
	cycles := fermion.CGIterationCycles(ppc440.At(c.Clock), c.Kind, c.Prec, level)
	e := Estimate{Level: level, Nodes: c.Grid.Volume()}
	e.ComputeTime = event.Time(cycles * vLocal * float64(c.Clock.Cycle()))

	// Halo time: per dslash, every distributed direction transfers both
	// faces concurrently over independent links; the slowest direction
	// gates. Two dslash applications per CG iteration.
	linkBW := LinkPayloadBandwidth(c.Clock) // bytes/s per direction
	var worst event.Time
	for mu := 0; mu < lattice.Ndim; mu++ {
		if c.Grid[mu] <= 1 {
			continue
		}
		bytes := float64(lattice.FaceVolume(c.Local, mu)*c.slices()) *
			fermion.CommBytesPerFaceSite(c.Kind, c.Prec)
		t := c.Clock.Cycles(NearestNeighbourLatencyCycles) +
			event.Time(bytes/linkBW*1e12)
		if t > worst {
			worst = t
		}
	}
	e.CommRawTime = 2 * worst

	// Reductions: CG needs two scalar reductions per iteration; our
	// distributed dot products sum real and imaginary parts separately,
	// giving three sums in the functional implementation — the model
	// follows the hardware-friendly count of 3.
	e.GsumTime = 3 * GsumLatency(c.Clock, c.Grid, gsumDoubled)

	// DMA engines move faces while the CPU works the volume.
	if e.CommRawTime > e.ComputeTime {
		e.CommTime = e.CommRawTime - e.ComputeTime
		e.IterTime = e.CommRawTime + e.GsumTime
	} else {
		e.IterTime = e.ComputeTime + e.GsumTime
	}

	e.FlopsPerIter = fermion.CGIterationFlopsPerSite(c.Kind) * vLocal
	if e.IterTime > 0 {
		e.Sustained = e.FlopsPerIter / e.IterTime.Seconds()
	}
	peak := 2 * float64(c.Clock)
	e.Efficiency = e.Sustained / peak
	e.MachineGflop = e.Sustained * float64(e.Nodes) / 1e9
	return e
}

// DslashEfficiency is the kernel-only (no solver linalg, no comm)
// efficiency — the quantity the paper's 40/38/46.5% table reports for
// EDRAM-resident 4^4 volumes where communication hides fully under
// compute.
func DslashEfficiency(kind fermion.OpKind, prec fermion.Precision, level memsys.Level, clock event.Hz) float64 {
	return ppc440.At(clock).Efficiency(fermion.SiteCost(kind, prec, level))
}

// HardScalingPoint is one point of the fixed-problem scaling curve.
type HardScalingPoint struct {
	Nodes      int
	Grid       lattice.Shape4
	Local      lattice.Shape4
	Estimate   Estimate
	CommFrac   float64 // non-hidden comm+gsum fraction of iteration time
	SpeedupVs1 float64 // machine sustained relative to one node
}

// HardScaling sweeps node counts for a fixed global lattice (§1's hard
// scaling: "adding more nodes generally increases the ratio of
// inter-node communication to local floating point operations").
func HardScaling(kind fermion.OpKind, global lattice.Shape4, grids []lattice.Shape4, clock event.Hz) ([]HardScalingPoint, error) {
	var out []HardScalingPoint
	var base float64
	for _, grid := range grids {
		dec, err := lattice.NewDecomp(global, grid)
		if err != nil {
			return nil, fmt.Errorf("perf: grid %v: %w", grid, err)
		}
		est := CGIteration(Config{Clock: clock, Grid: grid, Local: dec.Local, Kind: kind, Prec: fermion.Double})
		pt := HardScalingPoint{
			Nodes: grid.Volume(), Grid: grid, Local: dec.Local, Estimate: est,
		}
		if est.IterTime > 0 {
			pt.CommFrac = float64(est.CommTime+est.GsumTime) / float64(est.IterTime)
		}
		machine := est.Sustained * float64(grid.Volume())
		if base == 0 {
			base = machine / float64(grid.Volume()) // one-node rate
		}
		pt.SpeedupVs1 = machine / base
		out = append(out, pt)
	}
	return out, nil
}

// SustainedMachine estimates the sustained machine performance in
// Gflops for a production configuration (§4's price/performance uses a
// 45% solver efficiency at the machine scale).
func SustainedMachine(nodes int, clock event.Hz, efficiency float64) float64 {
	peakNode := 2 * float64(clock)
	return peakNode * efficiency * float64(nodes) / 1e9
}
