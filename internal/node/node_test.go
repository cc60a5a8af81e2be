package node

import (
	"testing"

	"qcdoc/internal/event"
	"qcdoc/internal/geom"
	"qcdoc/internal/memsys"
	"qcdoc/internal/ppc440"
)

func testNode(t *testing.T) (*event.Engine, *Node) {
	t.Helper()
	eng := event.New()
	t.Cleanup(eng.Shutdown)
	n := New(eng, 3, geom.Coord{1, 0, 1, 0, 0, 0}, 500*event.MHz)
	return eng, n
}

func TestLifecycle(t *testing.T) {
	_, n := testNode(t)
	if n.State() != Reset {
		t.Fatalf("initial state %v", n.State())
	}
	if err := n.StartBootKernel(); err == nil {
		t.Fatal("booted without code (no PROMs)")
	}
	n.LoadBootWord(0, 1)
	n.LoadBootWord(8, 2)
	if n.BootWords() != 2 {
		t.Fatalf("boot words %d", n.BootWords())
	}
	if err := n.StartBootKernel(); err != nil {
		t.Fatal(err)
	}
	if err := n.StartBootKernel(); err == nil {
		t.Fatal("double boot accepted")
	}
	if err := n.StartRunKernel(); err != nil {
		t.Fatal(err)
	}
	if n.State() != RunKernel {
		t.Fatalf("state %v", n.State())
	}
}

func TestForceReady(t *testing.T) {
	_, n := testNode(t)
	n.ForceReady()
	if n.State() != RunKernel {
		t.Fatalf("state %v", n.State())
	}
}

func TestRunProgramLifecycle(t *testing.T) {
	eng, n := testNode(t)
	n.ForceReady()
	ran := false
	if err := n.RunProgram("p", func(ctx *Ctx) {
		if ctx.N.State() != AppRunning {
			t.Error("not in app-running state during program")
		}
		ctx.P.Sleep(event.Microsecond)
		ran = true
	}); err != nil {
		t.Fatal(err)
	}
	// No second application while one runs (§3.2: no multitasking).
	if err := n.RunProgram("q", func(*Ctx) {}); err == nil {
		t.Fatal("second concurrent application accepted")
	}
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	done, err := n.AppDone()
	if !done || err != nil || !ran {
		t.Fatalf("done=%v err=%v ran=%v", done, err, ran)
	}
	if n.State() != RunKernel {
		t.Fatalf("state after app: %v", n.State())
	}
}

func TestAppPanicCaptured(t *testing.T) {
	eng, n := testNode(t)
	n.ForceReady()
	if err := n.RunProgram("boom", func(*Ctx) { panic("deliberate") }); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	done, err := n.AppDone()
	if !done || err == nil {
		t.Fatalf("done=%v err=%v", done, err)
	}
}

func TestAllocator(t *testing.T) {
	_, n := testNode(t)
	a := n.AllocWords(4)
	b := n.AllocWords(2)
	if b != a+32 {
		t.Fatalf("allocations not contiguous: %#x then %#x", a, b)
	}
	if a%8 != 0 {
		t.Fatal("unaligned allocation")
	}
	if memsys.LevelOf(b+8) != memsys.EDRAM {
		t.Fatal("small allocations should sit in EDRAM")
	}
	// Spill into DDR.
	if c := n.AllocWords(memsys.EDRAMBytes / 8); memsys.LevelOf(c+memsys.EDRAMBytes-8) != memsys.DDR {
		t.Fatal("large allocation should spill to DDR")
	}
	// Exhaustion panics (128 MB DDR installed).
	defer func() {
		if recover() == nil {
			t.Fatal("OOM not detected")
		}
	}()
	n.AllocWords(memsys.DDRBytes / 8)
}

func TestFloatAccessors(t *testing.T) {
	_, n := testNode(t)
	a := n.AllocWords(1)
	n.WriteF64(a, 3.14159)
	if got := n.ReadF64(a); got != 3.14159 {
		t.Fatalf("got %v", got)
	}
}

func TestComputeCharges(t *testing.T) {
	eng, n := testNode(t)
	n.ForceReady()
	k := ppc440.KernelCost{Flops: 2000, FPUOps: 1000, Level: memsys.EDRAM}
	var elapsed event.Time
	n.RunProgram("compute", func(ctx *Ctx) {
		t0 := ctx.P.Now()
		n.Compute(ctx.P, k)
		elapsed = ctx.P.Now() - t0
	})
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	want := n.CPU.KernelTime(k)
	if elapsed != want {
		t.Fatalf("charged %v, want %v", elapsed, want)
	}
}

// TestCrashBeforeProgramStartRunsNothing: a crash or hang that lands
// after RunProgram but before the application thread's first activation
// (same timestamp, earlier in the queue) leaves the program unrun — a
// crashed node must not start SCU transfers — and the node reports the
// application lost to the fault.
func TestCrashBeforeProgramStartRunsNothing(t *testing.T) {
	for _, fault := range []string{"crash", "hang"} {
		eng, n := testNode(t)
		n.ForceReady()
		ran := false
		if err := n.RunProgram("victim", func(*Ctx) { ran = true }); err != nil {
			t.Fatal(err)
		}
		if fault == "crash" {
			n.Crash()
		} else {
			n.Hang()
		}
		if err := eng.RunAll(); err != nil {
			t.Fatal(err)
		}
		if ran {
			t.Errorf("%s before the first activation: the program ran", fault)
		}
		if done, err := n.AppDone(); !done || err != ErrCrashed {
			t.Errorf("%s before the first activation: AppDone = %v, %v; want true, ErrCrashed", fault, done, err)
		}
		if eng.LiveProcs() != 0 {
			t.Errorf("%s: %d live processes after the run", fault, eng.LiveProcs())
		}
	}
}
