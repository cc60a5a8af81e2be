package qdaemon

import (
	"fmt"
	"strings"
	"testing"

	"qcdoc/internal/event"
	"qcdoc/internal/geom"
	"qcdoc/internal/machine"
	"qcdoc/internal/node"
	"qcdoc/internal/qos"
)

// harness builds a machine with a daemon, trains links (power-on), and
// returns a runner that executes a control program on the engine.
func harness(t *testing.T, shape geom.Shape) (*event.Engine, *Daemon, func(fn func(p *event.Proc))) {
	t.Helper()
	eng := event.New()
	m := machine.Build(eng, machine.DefaultConfig(shape))
	if err := m.TrainLinks(); err != nil {
		t.Fatal(err)
	}
	d := New(eng, m)
	t.Cleanup(func() { eng.Shutdown() })
	run := func(fn func(p *event.Proc)) {
		eng.Spawn("control", fn)
		if err := eng.RunAll(); err != nil {
			t.Fatal(err)
		}
	}
	return eng, d, run
}

// TestE13BootProtocol boots a 8-node machine through the full packet
// protocol and verifies the paper's packet counts: ~100 Ethernet/JTAG
// packets for the boot kernel and ~100 UDP packets for the run kernel,
// per node (§3.1).
func TestE13BootProtocol(t *testing.T) {
	_, d, run := harness(t, geom.MakeShape(2, 2, 2))
	var bootErr error
	run(func(p *event.Proc) { bootErr = d.BootAll(p) })
	if bootErr != nil {
		t.Fatal(bootErr)
	}
	for r, n := range d.M.Nodes {
		if n.State() != node.RunKernel {
			t.Fatalf("node %d state %v", r, n.State())
		}
		// Boot kernel: exactly the JTAG code words we sent.
		if n.BootWords() != BootKernelPackets {
			t.Fatalf("node %d got %d boot words", r, n.BootWords())
		}
		// Run kernel: ~100 image packets counted by the kernel.
		if got := d.Kernels[r].KernelPackets(); got != qos.RunKernelPackets {
			t.Fatalf("node %d got %d run-kernel packets", r, got)
		}
		// The JTAG controller served load + start.
		if served := d.JTAGs[r].Served; served != BootKernelPackets+1 {
			t.Fatalf("node %d JTAG served %d", r, served)
		}
	}
}

func TestJobLaunchAndOutput(t *testing.T) {
	_, d, run := harness(t, geom.MakeShape(2, 2))
	d.LoadProgram("hello", func(rank int) node.Program {
		return func(ctx *node.Ctx) {
			k := qos.FromCtx(ctx)
			k.Printf("hello from rank %d", rank)
			ctx.P.Sleep(event.Microsecond)
		}
	})
	var reports []string
	run(func(p *event.Proc) {
		if err := d.BootAll(p); err != nil {
			t.Error(err)
			return
		}
		var err error
		reports, err = d.Run(p, "job1", "hello")
		if err != nil {
			t.Error(err)
		}
	})
	if len(reports) != 4 {
		t.Fatalf("%d completion reports", len(reports))
	}
	for _, r := range reports {
		if !strings.Contains(r, "parity=0") {
			t.Fatalf("hardware report %q", r)
		}
	}
	out := d.Output["job1"]
	if len(out) != 4 {
		t.Fatalf("stdout lines: %v", out)
	}
	seen := map[string]bool{}
	for _, line := range out {
		seen[line] = true
	}
	if len(seen) != 4 {
		t.Fatalf("duplicate stdout: %v", out)
	}
}

// A job name runs once per daemon. A second Run of "j1" is refused
// before it sends a launch packet (it would otherwise count the first
// run's completions and return early), and the next job, "j2", returns
// only once every node has reported it done.
func TestRunRefusesReusedJobName(t *testing.T) {
	_, d, run := harness(t, geom.MakeShape(2, 2))
	d.LoadProgram("nap", func(int) node.Program {
		return func(ctx *node.Ctx) { ctx.P.Sleep(10 * event.Microsecond) }
	})
	run(func(p *event.Proc) {
		if err := d.BootAll(p); err != nil {
			t.Error(err)
			return
		}
		if _, err := d.Run(p, "j1", "nap"); err != nil {
			t.Error(err)
			return
		}
		sent := d.Ctl.TxPackets
		if _, err := d.Run(p, "j1", "nap"); err == nil || !strings.Contains(err.Error(), "already launched") {
			t.Errorf("second run of j1: err %v, want already launched", err)
		}
		if d.Ctl.TxPackets != sent {
			t.Errorf("refused run sent %d launch packets", d.Ctl.TxPackets-sent)
		}
		reports, err := d.Run(p, "j2", "nap")
		if err != nil {
			t.Error(err)
			return
		}
		if n := len(d.M.Nodes); len(reports) != n || d.doneCount["j2"] != n {
			t.Errorf("j2 returned with %d reports, %d done, want %d", len(reports), d.doneCount["j2"], n)
		}
	})
}

// The management plane is unsharded: New refuses a sharded machine.
func TestNewRefusesShardedMachine(t *testing.T) {
	eng := event.New()
	defer eng.Shutdown()
	cfg := machine.DefaultConfig(geom.MakeShape(2, 2))
	cfg.Shards = machine.ShardAuto
	m := machine.Build(eng, cfg)
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "shard") {
			t.Fatalf("New on a sharded machine: panic %v, want one naming sharding", r)
		}
	}()
	New(eng, m)
}

func TestNFSWrites(t *testing.T) {
	_, d, run := harness(t, geom.MakeShape(2))
	payload := strings.Repeat("configuration-data-", 200) // forces chunking
	d.LoadProgram("writer", func(rank int) node.Program {
		return func(ctx *node.Ctx) {
			k := qos.FromCtx(ctx)
			if rank == 0 {
				k.WriteFile(ctx.P, "lattice.cfg", []byte(payload))
			}
		}
	})
	run(func(p *event.Proc) {
		if err := d.BootAll(p); err != nil {
			t.Error(err)
			return
		}
		if _, err := d.Run(p, "w", "writer"); err != nil {
			t.Error(err)
		}
	})
	got, ok := d.FS["lattice.cfg"]
	if !ok {
		t.Fatal("file did not reach the host")
	}
	if string(got) != payload {
		t.Fatalf("file corrupted: %d vs %d bytes", len(got), len(payload))
	}
}

func TestRunWithoutBootFails(t *testing.T) {
	_, d, run := harness(t, geom.MakeShape(2))
	var err error
	run(func(p *event.Proc) { _, err = d.Run(p, "j", "nothing") })
	if err == nil {
		t.Fatal("run before boot accepted")
	}
}

func TestUnknownProgram(t *testing.T) {
	_, d, run := harness(t, geom.MakeShape(2))
	var err error
	run(func(p *event.Proc) {
		if e := d.BootAll(p); e != nil {
			t.Error(e)
			return
		}
		_, err = d.Run(p, "j", "no-such-binary")
	})
	if err == nil {
		t.Fatal("unknown program accepted")
	}
}

func TestRemap(t *testing.T) {
	// E13: partitions remap to dimensionalities 1..6 (§3.1), preserving
	// node count and nearest-neighbour mapping (the fold machinery).
	shape := geom.MakeShape(4, 2, 2, 2)
	_, d, _ := harness(t, shape)
	for dims := 1; dims <= 4; dims++ {
		if err := d.Remap(dims); err != nil {
			t.Fatalf("remap %d: %v", dims, err)
		}
		f := d.Fold()
		if f.Logical().Volume() != shape.Volume() {
			t.Fatalf("remap %d lost nodes", dims)
		}
		got := 0
		for _, e := range f.Logical() {
			if e > 1 {
				got++
			}
		}
		if got > dims {
			t.Fatalf("remap %d gave %d active dims", dims, got)
		}
	}
	if err := d.Remap(0); err == nil {
		t.Fatal("remap 0 accepted")
	}
	if err := d.Remap(7); err == nil {
		t.Fatal("remap 7 accepted")
	}
}

func TestQcshCommands(t *testing.T) {
	_, d, run := harness(t, geom.MakeShape(2, 2))
	sh := &Qcsh{D: d}
	d.LoadProgram("noop", func(rank int) node.Program {
		return func(ctx *node.Ctx) { qos.FromCtx(ctx).Printf("ok %d", rank) }
	})
	var outputs []string
	var errs []error
	run(func(p *event.Proc) {
		for _, cmd := range []string{
			"help",
			"boot",
			"status 0",
			"run demo noop",
			"output demo",
			"remap 2",
			"packaging",
			"ls",
		} {
			out, err := sh.Exec(p, cmd)
			outputs = append(outputs, out)
			errs = append(errs, err)
		}
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("command %d: %v", i, err)
		}
	}
	if !strings.Contains(outputs[1], "booted 4 nodes") {
		t.Fatalf("boot: %q", outputs[1])
	}
	if !strings.Contains(outputs[2], "state=run-kernel") {
		t.Fatalf("status: %q", outputs[2])
	}
	if !strings.Contains(outputs[3], "completed on 4 nodes") {
		t.Fatalf("run: %q", outputs[3])
	}
	if !strings.Contains(outputs[4], "ok") {
		t.Fatalf("output: %q", outputs[4])
	}
	// Unknown command errors.
	var err error
	run(func(p *event.Proc) { _, err = sh.Exec(p, "frobnicate") })
	if err == nil {
		t.Fatal("unknown command accepted")
	}
}
