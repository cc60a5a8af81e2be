package ppc440

import (
	"testing"

	"qcdoc/internal/event"
	"qcdoc/internal/memsys"
)

func TestPeakFlops(t *testing.T) {
	// §2.1: one multiply and one add per cycle gives 1 Gflops at 500 MHz.
	if got := Default().PeakFlops(); got != 1e9 {
		t.Fatalf("peak = %g", got)
	}
	if got := At(450 * event.MHz).PeakFlops(); got != 0.9e9 {
		t.Fatalf("peak@450 = %g", got)
	}
	if got := At(360 * event.MHz).PeakFlops(); got != 0.72e9 {
		t.Fatalf("peak@360 = %g", got)
	}
}

// pureCompute is a kernel with negligible memory traffic.
func pureCompute() KernelCost {
	return KernelCost{Name: "fma-loop", Flops: 2000, FPUOps: 1000, Level: memsys.EDRAM}
}

// pureStream is a kernel with negligible compute.
func pureStream() KernelCost {
	return KernelCost{Name: "copy", Flops: 10, FPUOps: 5, LoadBytes: 1e6, StoreBytes: 1e6, Level: memsys.EDRAM}
}

func TestComputeBound(t *testing.T) {
	c := Default()
	k := pureCompute()
	cycles := c.KernelCycles(k)
	if cycles != k.FPUOps*FPUCPI {
		t.Fatalf("cycles = %v", cycles)
	}
	// All-FMA code sustains 1/FPUCPI of peak.
	want := 1 / FPUCPI
	if got := c.Efficiency(k); got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("efficiency = %v, want %v", got, want)
	}
}

func TestMemoryBound(t *testing.T) {
	c := Default()
	k := pureStream()
	if got, want := c.KernelCycles(k), memsys.KernelCycles(memsys.EDRAM, int(k.Bytes())); got != want {
		t.Fatalf("cycles = %v, want %v", got, want)
	}
	// The same kernel from DDR is slower.
	k.Level = memsys.DDR
	if c.KernelCycles(k) <= c.KernelCycles(pureStream()) {
		t.Fatal("DDR kernel not slower than EDRAM")
	}
}

func TestPipelineFactor(t *testing.T) {
	c := Default()
	k := pureCompute()
	base := c.KernelCycles(k)
	k.PipelineFactor = 0.5
	if got := c.KernelCycles(k); got != base/2 {
		t.Fatalf("factor 0.5 gives %v, want %v", got, base/2)
	}
}

func TestScaleAndAdd(t *testing.T) {
	a := KernelCost{Flops: 10, FPUOps: 5, LoadBytes: 100, StoreBytes: 20, Level: memsys.EDRAM, Streams: 2}
	b := KernelCost{Flops: 1, FPUOps: 1, LoadBytes: 10, StoreBytes: 2, Level: memsys.DDR, Streams: 4}
	s := a.Scale(3)
	if s.Flops != 30 || s.LoadBytes != 300 {
		t.Fatalf("scale: %+v", s)
	}
	sum := a.Add(b)
	if sum.Flops != 11 || sum.Bytes() != 132 {
		t.Fatalf("add: %+v", sum)
	}
	if sum.Level != memsys.DDR {
		t.Fatal("add must deepen level")
	}
	if sum.Streams != 4 {
		t.Fatal("add must keep max streams")
	}
}

func TestKernelTimeAndExecute(t *testing.T) {
	c := Default()
	k := pureCompute() // 1960 cycles = 3.92 us at 500 MHz
	want := event.Time(k.FPUOps * FPUCPI * float64(c.Clock.Cycle()))
	if got := c.KernelTime(k); got != want {
		t.Fatalf("time = %v, want %v", got, want)
	}
	eng := event.New()
	var end event.Time
	eng.Spawn("app", func(p *event.Proc) {
		c.Execute(p, k)
		end = p.Now()
	})
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if end != want {
		t.Fatalf("executed time = %v, want %v", end, want)
	}
}

func TestSustainedScalesWithClock(t *testing.T) {
	k := pureCompute()
	s500 := Default().SustainedFlops(k)
	s360 := At(360 * event.MHz).SustainedFlops(k)
	ratio := s360 / s500
	if ratio < 0.71 || ratio > 0.73 {
		t.Fatalf("sustained ratio = %v, want 0.72", ratio)
	}
}

func TestEfficiencyZeroCycles(t *testing.T) {
	c := Default()
	if got := c.Efficiency(KernelCost{}); got != 0 {
		t.Fatalf("empty kernel efficiency = %v", got)
	}
}
