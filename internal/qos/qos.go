// Package qos is the QCDOC node operating system (§3.2): a lean,
// home-grown run-time kernel with exactly two threads — a kernel thread
// and an application thread — and no scheduler ("for QCD, we have no
// reason to multitask on the node level"). The kernel thread serves the
// management Ethernet: the run-kernel loader, the RPC channel to the
// qdaemon (§3.1), an NFS-style shim to the host disks, and hardware
// status reporting. Once an application starts, the kernel services its
// system calls and reports its completion and hardware status back to
// the host.
//
// Substitution note (see DESIGN.md): applications are Go functions
// registered under names instead of cross-compiled PowerPC binaries; the
// loader traffic (about a hundred UDP packets per kernel image, §3.1) is
// modelled with real packets of realistic sizes.
package qos

import (
	"fmt"
	"strconv"
	"strings"

	"qcdoc/internal/ethjtag"
	"qcdoc/internal/event"
	"qcdoc/internal/memsys"
	"qcdoc/internal/node"
)

// RunKernelPackets is the approximate number of UDP packets that carry
// the run kernel image (§3.1: "the run kernel is loaded down, also
// taking about 100 UDP packets").
const RunKernelPackets = 100

// RunKernelPacketBytes is the modelled code payload per packet.
const RunKernelPacketBytes = 512

// Kernel is one node's run kernel.
type Kernel struct {
	Node *node.Node
	Eth  *ethjtag.Port
	Host ethjtag.Addr
	// NFS is the host's file-server address (defaults to Host).
	NFS ethjtag.Addr

	// Programs is the application registry: the stand-in for binaries on
	// the host disks.
	Programs map[string]node.Program

	kernelPackets int
	kernelLoaded  bool
	stdoutSeq     int

	hbTimer  *event.Timer
	hbPeriod event.Time
}

// NewKernel builds the kernel for a node on its standard Ethernet port.
func NewKernel(n *node.Node, eth *ethjtag.Port, host ethjtag.Addr) *Kernel {
	k := &Kernel{Node: n, Eth: eth, Host: host, NFS: host, Programs: map[string]node.Program{}}
	n.Sys = k
	return k
}

// FromCtx recovers the kernel inside an application (the system-call
// surface).
func FromCtx(ctx *node.Ctx) *Kernel {
	k, ok := ctx.N.Sys.(*Kernel)
	if !ok {
		panic("qos: node has no kernel")
	}
	return k
}

// Start attaches the kernel thread to its Ethernet port. It runs from
// boot-kernel state onward; in the real machine the boot kernel
// initializes this Ethernet controller (§3.1). The service loop is a
// continuation on the event engine — one per node, no goroutines.
func (k *Kernel) Start() {
	k.Eth.OnPacket(k.serve)
}

// StartHeartbeat arms the kernel's liveness tick on eng, the machine's
// one engine, in an event at its current time. Every period, the
// kernel thread bumps the node's heartbeat counter, which the host
// watchdog reads through the telemetry MMIO window. Heartbeats are
// opt-in (chaos/recovery runs enable them) so the default event stream
// — and with it every pinned determinism digest — is untouched. A
// crashed or hung node's timer keeps firing (it is engine machinery,
// not node software) but ticks nothing: the counter freezes, which is
// precisely the watchdog's detection signal.
func (k *Kernel) StartHeartbeat(eng *event.Engine, period event.Time) {
	eng.At(eng.Now(), func() { k.armHeartbeat(eng, period) })
}

func (k *Kernel) armHeartbeat(eng *event.Engine, period event.Time) {
	if k.hbTimer != nil || period <= 0 {
		return
	}
	k.hbPeriod = period
	k.hbTimer = eng.NewTimer(func() {
		if !k.Node.Alive() {
			return // dead software ticks nothing; the timer dies with it
		}
		k.Node.TickHeartbeat()
		k.hbTimer.Arm(k.hbPeriod)
	})
	k.hbTimer.Arm(period)
}

// serve handles one management packet, in its arrival event. A node
// whose software has crashed or hung answers nothing — only the
// JTAG controller (separate port, pure hardware) still responds.
func (k *Kernel) serve(pkt ethjtag.Packet) {
	if !k.Node.Alive() {
		return
	}
	switch pkt.Port {
	case ethjtag.PortBoot:
		k.handleBoot(pkt)
	case ethjtag.PortRPC:
		k.handleRPC(pkt)
	default:
		// UDP to an unbound port: dropped, as a real sockets stack
		// would.
	}
}

// handleBoot accumulates run-kernel image packets; the final "START"
// packet installs the run kernel and initializes the SCU and mesh
// network (§3.1).
func (k *Kernel) handleBoot(pkt ethjtag.Packet) {
	if pkt.Payload == "START" {
		status := "ok"
		if k.kernelPackets == 0 {
			status = "err: no kernel image"
		} else if err := k.Node.StartRunKernel(); err != nil {
			status = "err: " + err.Error()
		} else {
			k.kernelLoaded = true
		}
		k.reply(pkt, ethjtag.PortBoot, status)
		return
	}
	k.kernelPackets++
}

// KernelPackets reports how many image packets arrived (experiment E13).
func (k *Kernel) KernelPackets() int { return k.kernelPackets }

// handleRPC serves the qdaemon's RPC channel: job launch, status and
// debugging pokes. Messages are simple space-separated text.
func (k *Kernel) handleRPC(pkt ethjtag.Packet) {
	fields := strings.Fields(pkt.Payload)
	if len(fields) == 0 {
		k.reply(pkt, ethjtag.PortRPC, "err: empty rpc")
		return
	}
	switch fields[0] {
	case "run":
		if len(fields) < 3 {
			k.reply(pkt, ethjtag.PortRPC, "err: run <job> <program>")
			return
		}
		job, name := fields[1], fields[2]
		prog, ok := k.Programs[name]
		if !ok {
			k.reply(pkt, ethjtag.PortRPC, "err: no such program "+name)
			return
		}
		wrapped := func(ctx *node.Ctx) {
			prog(ctx)
			// Program termination: the kernel thread reports completion
			// and hardware status to the qdaemon (§3.2).
			st := ctx.N.SCU.Stats()
			k.send(ethjtag.PortRPC, fmt.Sprintf("done %s %s parity=%d header=%d resends=%d",
				job, k.Node, st.ParityErrors, st.HeaderErrors, st.Resends))
		}
		if err := k.Node.RunProgram(name, wrapped); err != nil {
			k.reply(pkt, ethjtag.PortRPC, "err: "+err.Error())
			return
		}
		k.reply(pkt, ethjtag.PortRPC, "ok "+job)
	case "status":
		k.reply(pkt, ethjtag.PortRPC, fmt.Sprintf("state=%s boot=%d kernel=%v",
			k.Node.State(), k.Node.BootWords(), k.kernelLoaded))
	case "peek":
		// peek <hex byte address of a word, "0x" optional>
		addr, err := strconv.ParseUint(strings.TrimPrefix(strings.Join(fields[1:], " "), "0x"), 16, 64)
		if err != nil || addr%8 != 0 || addr >= memsys.DDRBase+memsys.DDRBytes {
			k.reply(pkt, ethjtag.PortRPC, "err: peek <aligned hex address below the end of DDR>")
			return
		}
		k.reply(pkt, ethjtag.PortRPC, fmt.Sprintf("%#x", k.Node.Mem.ReadWord(addr)))
	default:
		k.reply(pkt, ethjtag.PortRPC, "err: unknown rpc "+fields[0])
	}
}

func (k *Kernel) reply(req ethjtag.Packet, port uint16, msg string) {
	_ = k.Eth.Send(ethjtag.Packet{Dst: req.Src, Port: port, Payload: msg})
}

func (k *Kernel) send(port uint16, msg string) {
	_ = k.Eth.Send(ethjtag.Packet{Dst: k.Host, Port: port, Payload: msg})
}

// --- System calls available to applications ------------------------------

// Printf sends formatted output to the host, where the qdaemon returns
// it to the user's qcsh session (§3.1).
func (k *Kernel) Printf(format string, args ...any) {
	k.stdoutSeq++
	msg := fmt.Sprintf("stdout %s %d %s", k.Node, k.stdoutSeq, fmt.Sprintf(format, args...))
	k.send(ethjtag.PortRPC, msg)
}

// WriteFile writes data to the host filesystem over the NFS shim
// (§3.2: "support for NFS mounting of remote disks ... used by
// application programs to write directly to the host disk system").
// Large payloads are chunked into packets.
func (k *Kernel) WriteFile(p *event.Proc, name string, data []byte) {
	const chunk = 1024
	total := (len(data) + chunk - 1) / chunk
	if total == 0 {
		total = 1
	}
	var b []byte
	for i := 0; i < total; i++ {
		lo := i * chunk
		hi := min(lo+chunk, len(data))
		b = append(append(b[:0], "write "...), name...)
		b = strconv.AppendInt(append(b, ' '), int64(i), 10)
		b = strconv.AppendInt(append(b, ' '), int64(total), 10)
		b = append(append(b, ' '), data[lo:hi]...)
		_ = k.Eth.Send(ethjtag.Packet{Dst: k.NFS, Port: ethjtag.PortNFS, Payload: string(b)})
	}
}
