// Package node assembles one QCDOC processing node: the ASIC of Figure 1
// (PPC 440 compute model, prefetching EDRAM controller and DDR SDRAM
// behind the memory model, the SCU serial communications unit, and the
// Ethernet/JTAG management endpoints) plus the external DDR SDRAM DIMM.
// A node executes node programs — Go functions standing in for the
// application binaries the real machine loads over Ethernet — under the
// booting discipline of §2.3/§3.1: a PROM-less part comes up in reset,
// receives a boot kernel by JTAG, and only then runs code.
package node

import (
	"fmt"
	"math"
	"strconv"

	"qcdoc/internal/event"
	"qcdoc/internal/geom"
	"qcdoc/internal/memsys"
	"qcdoc/internal/ppc440"
	"qcdoc/internal/scu"
)

// State is the node's lifecycle state.
type State int

const (
	// Reset: powered on, no code (there are no PROMs on QCDOC; only the
	// Ethernet/JTAG controller is alive).
	Reset State = iota
	// BootKernel: the JTAG-loaded boot kernel is running; basic hardware
	// tests possible, standard Ethernet initialized.
	BootKernel
	// RunKernel: the run kernel is resident; SCU initialized; ready for
	// applications.
	RunKernel
	// AppRunning: a user application thread is executing.
	AppRunning
	// Crashed: the node's software died (fault injection or fatal error).
	// Only the Ethernet/JTAG controller — pure hardware, alive from
	// power-on (§2.3) — still answers, which is how the host's watchdog
	// can observe the state of a node whose kernels are gone.
	Crashed
)

var stateNames = [...]string{"reset", "boot-kernel", "run-kernel", "app-running", "crashed"}

func (s State) String() string {
	if s >= 0 && int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Ctx is the execution context a node program receives: the simulation
// process it runs on and the node hardware it runs on.
type Ctx struct {
	P *event.Proc
	N *Node
}

// Program is a node application: the stand-in for a cross-compiled
// binary.
type Program func(ctx *Ctx)

// Node is one processing node. It holds its memory, SCU and application
// thread by value, so a machine's nodes are one slab (see Init).
type Node struct {
	Eng   *event.Engine
	Rank  int
	Coord geom.Coord

	Mem memsys.NodeMemory
	CPU ppc440.CPU
	SCU scu.SCU

	state     State
	bootWords int
	app       event.Proc // the application thread; see RunProgram
	ctx       Ctx        // what its program receives: &app and the node
	prog      Program    // the program it runs
	appDone   bool
	appEnd    event.Time // when the application thread returned
	appErr    error
	hung      bool   // software wedged: state looks normal, nothing progresses
	heartbeat uint64 // liveness counter the run kernel ticks; see TickHeartbeat

	// brk is the bump-allocator frontier for node program data.
	brk uint64

	// ctr is the telemetry counter block; nil until EnableCounters, and
	// every hot-path hook tests for nil so disabled telemetry costs one
	// pointer compare (see telemetry.go).
	ctr *Counters

	// Sys is the system-services slot: the run kernel installs itself
	// here so applications can reach their system-call surface.
	Sys any
}

// bootReserved is the memory reserved for kernels at the bottom of
// EDRAM.
const bootReserved = 256 << 10

// New builds a node whose processor and SCU run at clock.
func New(eng *event.Engine, rank int, coord geom.Coord, clock event.Hz) *Node {
	n := new(Node)
	n.Init(eng, rank, coord, clock)
	return n
}

// Init is New in place, on a zero Node (in state Reset): machine.Build
// initialises all of a machine's nodes in one slab.
func (n *Node) Init(eng *event.Engine, rank int, coord geom.Coord, clock event.Hz) {
	n.Eng, n.Rank, n.Coord, n.CPU, n.brk = eng, rank, coord, ppc440.At(clock), bootReserved
	n.ctx = Ctx{P: &n.app, N: n}
	n.SCU.Init(eng, n, &n.Mem, clock)
}

// String returns the node's name, "node" and its rank, built on demand.
func (n *Node) String() string { return "node" + strconv.Itoa(n.Rank) }

// State returns the lifecycle state.
func (n *Node) State() State { return n.state }

// LoadBootWord models one word of boot-kernel code arriving by JTAG,
// written directly into the instruction cache (§3.1). The simulator runs
// no loaded code, so the word is counted, not stored. Loading any code
// moves a reset node to the boot kernel state once started.
func (n *Node) LoadBootWord(addr, w uint64) { n.bootWords++ }

// BootWords reports how many code words have been loaded.
func (n *Node) BootWords() int { return n.bootWords }

// StartBootKernel begins executing the JTAG-loaded boot kernel.
func (n *Node) StartBootKernel() error {
	if n.state != Reset {
		return fmt.Errorf("node %s: boot kernel start in state %v", n, n.state)
	}
	if n.bootWords == 0 {
		return fmt.Errorf("node %s: no boot code loaded (no PROMs on QCDOC)", n)
	}
	n.state = BootKernel
	return nil
}

// StartRunKernel installs the run kernel (loaded over the standard
// Ethernet) and initializes the SCU.
func (n *Node) StartRunKernel() error {
	if n.state != BootKernel {
		return fmt.Errorf("node %s: run kernel start in state %v", n, n.state)
	}
	n.state = RunKernel
	n.SCU.Start()
	return nil
}

// ForceReady skips the boot protocol: used by benchmarks and tests that
// exercise the network and application layers directly.
func (n *Node) ForceReady() {
	if n.state == Reset {
		n.bootWords++
		n.state = BootKernel
	}
	if n.state == BootKernel {
		n.state = RunKernel
		n.SCU.Start()
	}
}

// RunProgram starts the application thread (§3.2: the run kernel has a
// kernel thread and an application thread; no multitasking). The thread
// is the node's own event.Proc with the node as its body, so starting a
// program allocates only the thread's goroutine (and, once, its channel).
// The node
// returns to RunKernel state when the program finishes. A panic in the
// program is captured as the application error. A kill by Crash/Hang
// (even before the thread's first activation: the program never runs)
// records ErrCrashed and leaves the crashed/hung facade in place; a kill
// by engine shutdown records nothing.
func (n *Node) RunProgram(name string, prog Program) error {
	if n.state != RunKernel {
		return fmt.Errorf("node %s: cannot run application in state %v", n, n.state)
	}
	n.state, n.appDone, n.appErr, n.prog = AppRunning, false, nil, prog
	n.Eng.Start(&n.app, name, n)
	return nil
}

// RunProc runs the program on the application thread (event.Body).
func (n *Node) RunProc(*event.Proc) { n.prog(&n.ctx) }

// ExitProc records how the application thread ended; see RunProgram. It
// implements event.Body; do not call it directly.
func (n *Node) ExitProc(p *event.Proc, r any) {
	n.prog = nil // nothing the program captured outlives it
	killed := event.IsKillPanic(r)
	switch {
	case killed && (n.state == Crashed || n.hung):
		n.appErr = ErrCrashed
	case killed:
		return // engine teardown, not an application outcome
	case r != nil:
		n.appErr = fmt.Errorf("node %s: application panic: %v", n, r)
	}
	if !n.hung && n.state == AppRunning {
		n.state = RunKernel
	}
	n.appDone, n.appEnd = true, p.Now()
}

// ProcName names the thread "node<rank> app <program>" (event.Body).
func (n *Node) ProcName(prog string) string { return n.String() + " app " + prog }

// ErrCrashed is the application error recorded when the node's software
// was lost to an injected crash or hang rather than finishing.
var ErrCrashed = fmt.Errorf("node: application lost to a crash fault")

// Crash models the node's software dying instantly: the application
// thread is unwound, the lifecycle state becomes Crashed, and nothing
// software-driven on this node runs again — no RPC replies, no
// heartbeat ticks. The SCU and the Ethernet/JTAG controller are
// hardware and keep answering, so neighbours' window protocols and the
// host's watchdog observe the death rather than being told about it.
func (n *Node) Crash() {
	if n.state == Crashed {
		return
	}
	n.state = Crashed
	n.hung = false
	n.app.Kill()
}

// Hang models the nastier failure: the software wedges. The lifecycle
// state still reads AppRunning — a status peek looks healthy — but the
// application thread is gone and the heartbeat counter freezes, which
// is exactly the case the watchdog's stale-heartbeat detection exists
// for.
func (n *Node) Hang() {
	if n.state == Crashed || n.hung {
		return
	}
	n.hung = true
	n.app.Kill()
}

// Alive reports whether the node's software is still running (neither
// crashed nor hung). Hardware — SCU, Ethernet/JTAG — stays up
// regardless.
func (n *Node) Alive() bool { return n.state != Crashed && !n.hung }

// TickHeartbeat advances the liveness counter. The run kernel calls it
// on a periodic sim-clock timer; a crashed or hung node's counter stays
// frozen, which the host watchdog reads through the telemetry window.
func (n *Node) TickHeartbeat() {
	if n.Alive() {
		n.heartbeat++
	}
}

// AppDone reports whether the last application finished, and its error.
func (n *Node) AppDone() (bool, error) { return n.appDone, n.appErr }

// AppEnd returns the simulated time the last application returned at.
func (n *Node) AppEnd() event.Time { return n.appEnd }

// AllocWords reserves n contiguous 64-bit words of node memory and
// returns the byte address; allocation is EDRAM-first, spilling into DDR
// exactly as §4 describes for large local volumes.
func (n *Node) AllocWords(words int) uint64 {
	addr := n.brk
	n.brk += uint64(words) * 8
	if n.brk > memsys.DDRBase+memsys.DDRBytes {
		panic(fmt.Sprintf("node %s: out of memory (brk %#x)", n, n.brk))
	}
	return addr
}

// WriteF64 stores a float64 at a word address.
func (n *Node) WriteF64(addr uint64, v float64) {
	n.Mem.WriteWord(addr, math.Float64bits(v))
}

// ReadF64 loads a float64 from a word address.
func (n *Node) ReadF64(addr uint64) float64 {
	return math.Float64frombits(n.Mem.ReadWord(addr))
}

// Compute charges the node's CPU with a kernel execution.
func (n *Node) Compute(p *event.Proc, k ppc440.KernelCost) {
	n.noteKernel(k)
	n.CPU.Execute(p, k)
}
