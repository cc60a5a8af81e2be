package machine

import (
	"runtime"
	"testing"
	"time"

	"qcdoc/internal/event"
	"qcdoc/internal/geom"
	"qcdoc/internal/node"
	"qcdoc/internal/qmp"
)

// TestMachineGoroutineHygiene checks the refactor's structural claim: a
// built, booted machine runs its link units, wire delivery, clocks and
// interrupt flood entirely on the continuation tier, so the only process
// goroutines alive during a job are the application threads — and after
// RunSPMD returns and Shutdown runs, none remain.
func TestMachineGoroutineHygiene(t *testing.T) {
	before := runtime.NumGoroutine()
	eng := event.New()
	m := Build(eng, DefaultConfig(geom.MakeShape(4, 2)))
	if err := m.Boot(); err != nil {
		t.Fatal(err)
	}
	// Boot spawned nothing: every SCU daemon is a flat state machine now.
	if got := eng.LiveProcs(); got != 0 {
		t.Fatalf("%d process goroutines alive after boot, want 0", got)
	}
	fold := geom.IdentityFold(m.Cfg.Shape)
	err := m.RunSPMD("sum", func(rank int) node.Program {
		return func(ctx *node.Ctx) {
			qmp.New(ctx, fold).GlobalSumFloat64(ctx.P, float64(rank))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Application procs ran to completion; nothing is parked.
	if got := eng.LiveProcs(); got != 0 {
		t.Fatalf("%d process goroutines alive after job, want 0", got)
	}
	eng.Shutdown()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("goroutines: %d before build, %d after shutdown", before, got)
	}
}
