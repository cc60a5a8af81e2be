// Package qdaemon is the host-side software of §3.1: the daemon running
// on the commercial SMP host that boots QCDOC over the Ethernet/JTAG
// network, loads run kernels over the standard Ethernet, tracks node
// status, manages machine partitions (including remapping to lower
// dimensionality), launches applications by RPC, collects their output,
// and serves the NFS shim backing the nodes' file writes. The qcsh
// command layer (qcsh.go) provides the user-facing command interface.
package qdaemon

import (
	"fmt"
	"strconv"
	"strings"

	"qcdoc/internal/ethjtag"
	"qcdoc/internal/event"
	"qcdoc/internal/geom"
	"qcdoc/internal/machine"
	"qcdoc/internal/node"
	"qcdoc/internal/qos"
	"qcdoc/internal/telemetry"
)

// BootKernelPackets is the approximate number of Ethernet/JTAG packets
// that carry the boot kernel (§3.1: "each node receives about 100 UDP
// packets ... written directly into the instruction cache").
const BootKernelPackets = 100

// nodeTarget adapts a node to the JTAG controller's chip surface.
type nodeTarget struct{ n *node.Node }

// ReadWord serves a JTAG peek. Addresses at the top of the 64-bit space
// fall in the node's telemetry window (node.TelemetryBase) — the
// RISCWatch-style path the host uses to fetch hardware counters from a
// running node without involving the compute fabric; everything below is
// plain memory.
func (t nodeTarget) ReadWord(a uint64) uint64 {
	if node.IsTelemetryAddr(a) {
		return t.n.ReadTelemetryWord(a)
	}
	return t.n.Mem.ReadWord(a)
}
func (t nodeTarget) WriteWord(a uint64, w uint64)    { t.n.Mem.WriteWord(a, w) }
func (t nodeTarget) LoadBootWord(a uint64, w uint64) { t.n.LoadBootWord(a, w) }
func (t nodeTarget) StartBootKernel() error          { return t.n.StartBootKernel() }
func (t nodeTarget) StateCode() uint64               { return uint64(t.n.State()) }

// Daemon is the qdaemon.
type Daemon struct {
	Eng *event.Engine
	M   *machine.Machine
	Net *ethjtag.Network

	// The daemon uses multiple Gigabit Ethernet links (§3.1: "the
	// physical connection to QCDOC is via multiple Gigabit Ethernet
	// links"): Ctl carries synchronous request/reply traffic (JTAG
	// commands, kernel loads, job launches), Host receives asynchronous
	// node events (completions, stdout), NFS serves the file shim, and
	// Mon is the watchdog's dedicated side-network port (so health
	// polls never interleave with the control program's exchanges).
	Ctl  *ethjtag.Port
	Host *ethjtag.Port
	NFS  *ethjtag.Port
	Mon  *ethjtag.Port

	rpcStats RPCStats // the request/reply retry counters (see retry.go)

	// Part tracks daughterboard health: jobs launch only on
	// non-isolated ranks (see partition.go).
	Part *PartitionMap
	wd   *Watchdog

	Kernels []*qos.Kernel
	JTAGs   []*ethjtag.JTAGController

	// FS is the host's RAID storage (§4: 6 TB of parallel RAID).
	FS map[string][]byte
	// Output collects application stdout lines per job.
	Output map[string][]string
	// doneCount tracks per-job completion RPCs; it holds an entry for
	// every job this daemon has launched, so a job name runs once.
	doneCount map[string]int
	doneGate  *event.Gate
	hwReports map[string][]string
	activeJob string
	abortErr  error

	// fold is the current partition mapping (§3.1: "a user requests that
	// the qdaemon remap their partition to a dimensionality between one
	// and six").
	fold *geom.Fold

	booted bool
}

// New wires a daemon to a built (untrained, unbooted) machine: it
// creates the management network with one standard-Ethernet and one
// JTAG port per node, the per-node run kernels, and the host ports, and
// starts every service loop. The management plane runs on one engine:
// New panics on a sharded machine.
func New(eng *event.Engine, m *machine.Machine) *Daemon {
	if m.Cluster() != nil {
		panic("qdaemon: New on a sharded machine (the management network is unsharded)")
	}
	d := &Daemon{
		Eng:       eng,
		M:         m,
		Net:       ethjtag.NewNetwork(eng),
		FS:        map[string][]byte{},
		Output:    map[string][]string{},
		doneCount: map[string]int{},
		hwReports: map[string][]string{},
		fold:      geom.IdentityFold(m.Cfg.Shape),
		Part:      NewPartitionMap(len(m.Nodes)),
	}
	d.doneGate = event.NewGate(eng)
	d.Host = d.Net.Attach(ethjtag.HostAddr, ethjtag.HostEthernetBps)
	d.NFS = d.Net.Attach(ethjtag.HostAddr+1, ethjtag.HostEthernetBps)
	d.Ctl = d.Net.Attach(ethjtag.HostAddr+2, ethjtag.HostEthernetBps)
	d.Mon = d.Net.Attach(ethjtag.HostAddr+3, ethjtag.HostEthernetBps)
	m.Reg.RegisterCounters("qdaemon/rpc", func(emit telemetry.EmitFunc) {
		emit("exchanges", d.rpcStats.Exchanges)
		emit("timeouts", d.rpcStats.Timeouts)
		emit("retries", d.rpcStats.Retries)
		emit("stale", d.rpcStats.Stale)
		emit("failures", d.rpcStats.Failures)
	})
	for r, n := range m.Nodes {
		eth := d.Net.Attach(ethjtag.NodeEthAddr(r), ethjtag.NodeEthernetBps)
		jp := d.Net.Attach(ethjtag.NodeJTAGAddr(r), ethjtag.NodeEthernetBps)
		k := qos.NewKernel(n, eth, ethjtag.HostAddr)
		k.NFS = ethjtag.HostAddr + 1
		k.Start()
		ctl := &ethjtag.JTAGController{Port: jp, Target: nodeTarget{n}}
		ctl.Start()
		d.Kernels = append(d.Kernels, k)
		d.JTAGs = append(d.JTAGs, ctl)
	}
	eng.SpawnDaemon("qdaemon host", d.hostLoop)
	eng.SpawnDaemon("qdaemon nfs", d.nfsLoop)
	return d
}

// hostLoop collects application completions and stdout.
func (d *Daemon) hostLoop(p *event.Proc) {
	for {
		pkt := d.Host.Recv(p)
		if pkt.Port != ethjtag.PortRPC {
			continue
		}
		fields := strings.Fields(pkt.Payload)
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "done":
			if len(fields) >= 3 {
				job := fields[1]
				d.doneCount[job]++
				d.hwReports[job] = append(d.hwReports[job], strings.Join(fields[2:], " "))
				d.doneGate.Fire()
			}
		case "stdout":
			if len(fields) >= 4 {
				// stdout <node> <seq> <text...> — attribute to the active job.
				line := fmt.Sprintf("%s: %s", fields[1], strings.Join(fields[3:], " "))
				d.Output[d.activeJob] = append(d.Output[d.activeJob], line)
			}
		}
	}
}

// nfsLoop serves the NFS shim: chunked writes land in the host FS.
func (d *Daemon) nfsLoop(p *event.Proc) {
	type file struct {
		name string
		src  ethjtag.Addr
	}
	type pending struct {
		chunks map[int]string
		total  int
	}
	open := map[file]*pending{}
	for {
		pkt := d.NFS.Recv(p)
		if pkt.Port != ethjtag.PortNFS {
			continue
		}
		// "write <name> <i> <total> <data...>"
		rest, ok := strings.CutPrefix(pkt.Payload, "write ")
		if !ok {
			continue
		}
		name, rest, _ := strings.Cut(rest, " ")
		si, rest, _ := strings.Cut(rest, " ")
		stotal, data, ok := strings.Cut(rest, " ")
		if !ok {
			continue
		}
		i, _ := strconv.Atoi(si)
		total, _ := strconv.Atoi(stotal)
		key := file{name, pkt.Src}
		pd := open[key]
		if pd == nil {
			pd = &pending{chunks: map[int]string{}, total: total}
			open[key] = pd
		}
		pd.chunks[i] = data
		if len(pd.chunks) == pd.total {
			var data []byte
			for c := 0; c < pd.total; c++ {
				data = append(data, pd.chunks[c]...)
			}
			d.FS[name] = data
			delete(open, key)
		}
	}
}

// BootAll performs the full §3.1 bring-up from the host: HSSL training
// happens at power-on (machine.TrainLinks must have run); then, per
// node: ~100 Ethernet/JTAG packets of boot-kernel code, the JTAG start
// command, a status check, ~100 run-kernel packets over the standard
// Ethernet, and the kernel-start handshake. Every request/reply step
// rides the retry machinery (retry.go): a single lost datagram costs a
// timeout and a retransmission, not a wedged boot. Ranks already
// isolated by the partition map are skipped.
func (d *Daemon) BootAll(p *event.Proc) error {
	for r := range d.M.Nodes {
		if d.Part.Isolated(r) {
			continue
		}
		if err := d.bootNode(p, r); err != nil {
			return err
		}
	}
	d.M.MarkBooted()
	d.booted = true
	return nil
}

// bootNode brings one node from reset to run-kernel state.
func (d *Daemon) bootNode(p *event.Proc, r int) error {
	// Boot kernel over Ethernet/JTAG: each code word is one reliable
	// exchange (before retry.go, a lost ack deadlocked the boot here).
	for i := 0; i < BootKernelPackets; i++ {
		if _, err := d.jtagExchange(p, d.Ctl, r, ethjtag.OpLoadBoot, uint64(i*8), 0x60000000+uint64(i), true); err != nil {
			return err
		}
	}
	code, err := d.jtagExchange(p, d.Ctl, r, ethjtag.OpStartBoot, 0, 0, false)
	if err != nil {
		return err
	}
	if code != 0 {
		// OpStartBoot is not idempotent: when an earlier attempt's reply
		// was lost, the retransmission finds the node already out of
		// reset and is refused. The idempotent status op disambiguates a
		// genuine refusal from a lost ack.
		state, serr := d.jtagExchange(p, d.Ctl, r, ethjtag.OpStatus, 0, 0, false)
		if serr != nil {
			return serr
		}
		if node.State(state) == node.Reset {
			return fmt.Errorf("qdaemon: node %d refused boot", r)
		}
	}
	// Run kernel over the standard Ethernet: the image packets are
	// fire-and-forget UDP; only the final START is a handshake.
	eaddr := ethjtag.NodeEthAddr(r)
	img := string(make([]byte, qos.RunKernelPacketBytes))
	for i := 0; i < qos.RunKernelPackets; i++ {
		if err := d.Ctl.Send(ethjtag.Packet{Dst: eaddr, Port: ethjtag.PortBoot, Payload: img}); err != nil {
			return err
		}
	}
	rep, err := d.exchange(p, d.Ctl, ethjtag.Packet{Dst: eaddr, Port: ethjtag.PortBoot, Payload: "START"},
		func() string { return fmt.Sprintf("node %d run-kernel start", r) },
		func(rep ethjtag.Packet) bool { return rep.Src == eaddr && rep.Port == ethjtag.PortBoot })
	if err != nil {
		return err
	}
	if rep.Payload != "ok" {
		// A START retransmitted after a lost "ok" is refused ("run
		// kernel start in state run-kernel"); the status RPC confirms
		// whether the kernel actually installed.
		st, serr := d.statusExchange(p, r)
		if serr != nil || !strings.Contains(st, "state=run-kernel") {
			return fmt.Errorf("qdaemon: node %d run kernel: %s", r, rep.Payload)
		}
	}
	return nil
}

// LoadProgram registers an application on every node's kernel — the
// moral equivalent of copying a binary onto the host disks (the factory
// receives the node rank, since SPMD programs are rank-parameterized).
func (d *Daemon) LoadProgram(name string, factory func(rank int) node.Program) {
	for r, k := range d.Kernels {
		k.Programs[name] = factory(r)
	}
}

// Remap changes the partition's logical dimensionality (1..6), §3.1.
// The current implementation remaps the whole machine; the new fold is
// what subsequent jobs see.
func (d *Daemon) Remap(dims int) error {
	f, err := geom.FoldToDims(d.M.Cfg.Shape, dims)
	if err != nil {
		return err
	}
	d.fold = f
	return nil
}

// Fold returns the current partition fold.
func (d *Daemon) Fold() *geom.Fold { return d.fold }

// Run launches a loaded program on every non-isolated node and blocks
// until all of them report completion, returning the per-node hardware
// reports. Launch requests are pipelined (all sent, then acks
// collected) with timeout-and-retransmit on the stragglers; a node that
// reports the program already running — the signature of a retried
// launch whose first ack was lost — counts as launched. If the
// watchdog detects a node death while the job is in flight, Run returns
// its *AbortError instead of waiting forever for a completion that
// cannot come. A job name runs once per daemon: Run refuses one it has
// already launched, before sending anything, since the completions of
// both runs would count toward the same job.
func (d *Daemon) Run(p *event.Proc, job, program string) ([]string, error) {
	if !d.booted {
		return nil, fmt.Errorf("qdaemon: machine not booted")
	}
	if _, used := d.doneCount[job]; used {
		return nil, fmt.Errorf("qdaemon: job %s already launched", job)
	}
	if d.abortErr != nil {
		// A death was detected between jobs — during a recovery's
		// restore, say. It must surface here, not be silently swallowed
		// by the launch; takeAbort consumes it so the operator's next
		// job (on the now-isolated partition) starts clean.
		return nil, d.takeAbort()
	}
	d.activeJob = job
	d.doneCount[job] = 0
	ranks := d.Part.HealthyRanks()
	launch := func(r int) error {
		return d.Ctl.Send(ethjtag.Packet{
			Dst: ethjtag.NodeEthAddr(r), Port: ethjtag.PortRPC,
			Payload: fmt.Sprintf("run %s %s", job, program),
		})
	}
	pending := map[ethjtag.Addr]int{}
	for _, r := range ranks {
		if err := launch(r); err != nil {
			return nil, err
		}
		pending[ethjtag.NodeEthAddr(r)] = r
	}
	timeout := rpcTimeout
	for attempt := 1; len(pending) > 0; {
		ack, ok := d.Ctl.RecvTimeout(p, timeout)
		if !ok {
			d.rpcStats.Timeouts++
			attempt++
			if attempt > rpcAttempts {
				d.rpcStats.Failures++
				return nil, fmt.Errorf("qdaemon: launch %s: %d nodes never acknowledged", job, len(pending))
			}
			// Retransmit to the stragglers, in rank order.
			for _, r := range ranks {
				if _, still := pending[ethjtag.NodeEthAddr(r)]; still {
					d.rpcStats.Retries++
					if err := launch(r); err != nil {
						return nil, err
					}
				}
			}
			if timeout *= 2; timeout > rpcMaxTimeout {
				timeout = rpcMaxTimeout
			}
			continue
		}
		r, want := pending[ack.Src]
		if !want || ack.Port != ethjtag.PortRPC {
			d.rpcStats.Stale++
			continue
		}
		pl := ack.Payload
		switch {
		case strings.HasPrefix(pl, "ok"):
			d.rpcStats.Exchanges++
			delete(pending, ack.Src)
		case strings.Contains(pl, "cannot run application in state app-running"):
			// The first launch took; its ack was lost and the retry
			// found the application already running.
			d.rpcStats.Exchanges++
			delete(pending, ack.Src)
		default:
			return nil, fmt.Errorf("qdaemon: launch failed on node %d: %s", r, pl)
		}
	}
	// Completions arrive asynchronously on the event port; an abort
	// (watchdog-detected death) fires the same gate.
	want := len(ranks)
	for d.doneCount[job] < want {
		if d.abortErr != nil {
			return nil, d.takeAbort()
		}
		d.doneGate.Wait(p, "job "+job)
	}
	if d.abortErr != nil {
		return nil, d.takeAbort()
	}
	return d.hwReports[job], nil
}

// AbortJob makes a blocked Run return err instead of waiting for
// completions that will never arrive. The watchdog calls it on death
// detection; idempotent. With no job active the abort is recorded as
// pending and the next Run returns it immediately — a death detected
// mid-recovery (after the old job died, before the new one launched)
// must re-enter detection/isolation, not vanish.
func (d *Daemon) AbortJob(err error) {
	if d.abortErr != nil {
		return
	}
	d.abortErr = err
	d.doneGate.Fire()
}

// Aborted returns the pending abort, if a death was detected since the
// last Run reported one.
func (d *Daemon) Aborted() error { return d.abortErr }

// takeAbort consumes the pending abort: each detection is reported by
// exactly one Run return.
func (d *Daemon) takeAbort() error {
	err := d.abortErr
	d.abortErr = nil
	return err
}

// Status queries one node's kernel over RPC.
func (d *Daemon) Status(p *event.Proc, rank int) (string, error) {
	return d.statusExchange(p, rank)
}

// statusExchange is the reliable status RPC: the reply must come from
// the queried node and look like a status line.
func (d *Daemon) statusExchange(p *event.Proc, rank int) (string, error) {
	eaddr := ethjtag.NodeEthAddr(rank)
	rep, err := d.exchange(p, d.Ctl, ethjtag.Packet{
		Dst: eaddr, Port: ethjtag.PortRPC, Payload: "status",
	}, func() string { return fmt.Sprintf("node %d status", rank) }, func(rep ethjtag.Packet) bool {
		return rep.Src == eaddr && rep.Port == ethjtag.PortRPC && strings.HasPrefix(rep.Payload, "state=")
	})
	if err != nil {
		return "", err
	}
	return rep.Payload, nil
}
