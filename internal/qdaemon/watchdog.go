package qdaemon

// The heartbeat watchdog: the host-side failure detector. Run kernels
// tick a per-node heartbeat counter (qos.Kernel.StartHeartbeat); the
// watchdog polls each node's telemetry window over the Ethernet/JTAG
// side network — the RISCWatch path, which needs no software on the
// node — and declares a node dead when its lifecycle state reads
// Crashed or its heartbeat freezes for watchdogMisses consecutive
// polls (the hung case, where state still claims app-running). A death
// marks the owning daughterboard failed in the partition map and
// aborts the active job so the recovery flow (repartition, restore
// checkpoint, restart) can take over.
//
// The watchdog runs on its own host port (Daemon.Mon) so its peeks
// never interleave with the control program's synchronous exchanges on
// Ctl. All waiting is simulation-clock sleeps and timeouts: a run with
// a given fault plan detects the same death at the same picosecond
// every time.

import (
	"fmt"

	"qcdoc/internal/event"
	"qcdoc/internal/node"
	"qcdoc/internal/telemetry"
)

// The host's detection policy.
const (
	// watchdogPeriod is the polling interval.
	watchdogPeriod = 500 * event.Microsecond
	// watchdogMisses is how many consecutive polls may observe a frozen
	// heartbeat (or fail outright) before the node is declared dead.
	watchdogMisses = 3
	// heartbeatPeriod is the run kernels' liveness tick, five ticks to a
	// poll.
	heartbeatPeriod = 100 * event.Microsecond
)

// FailureRecord describes one detected node death.
type FailureRecord struct {
	// Rank is the dead node; Board its daughterboard.
	Rank, Board int
	// Crashed is true when the lifecycle state read Crashed (fast
	// detection); false for the frozen-heartbeat (hang) path.
	Crashed bool
	// DetectedAt is when the watchdog declared the death.
	DetectedAt event.Time
	// DetectLatency is DetectedAt minus the last poll that observed the
	// node making progress — the window during which the machine ran
	// with an undetected dead node.
	DetectLatency event.Time
}

func (f FailureRecord) String() string {
	kind := "hung"
	if f.Crashed {
		kind = "crashed"
	}
	return fmt.Sprintf("node %d (board %d) %s, detected at %v (latency %v)",
		f.Rank, f.Board, kind, f.DetectedAt, f.DetectLatency)
}

// AbortError is the error a job launch returns when the watchdog
// aborted it after detecting a node death. The chaos/recovery driver
// treats it as "restore checkpoint and restart on the survivors".
type AbortError struct {
	Job string
	Rec FailureRecord
}

func (e *AbortError) Error() string {
	return fmt.Sprintf("qdaemon: job %s aborted: %s", e.Job, e.Rec)
}

// FalsePositiveRecord is one rejected death report: a node reported
// dead whose liveness probe found it making progress.
type FalsePositiveRecord struct {
	Rank int
	// At is when the probe rejected the report.
	At event.Time
}

// Watchdog is the host's failure detector.
type Watchdog struct {
	d *Daemon

	lastBeat []uint64
	lastLive []event.Time // last poll that observed progress
	stale    []int
	dead     []bool
	suspect  []bool // externally filed death reports awaiting a probe

	// Polls counts per-node poll rounds; PeekErrors counts side-network
	// peeks that exhausted their retries (each also counts as a miss).
	Polls      uint64
	PeekErrors uint64
	// Probes counts liveness re-checks run before isolation.
	Probes uint64
	// DetectHist is the distribution of detection latencies.
	DetectHist telemetry.Histogram
	// Failures is every detected death, in detection order.
	Failures []FailureRecord
	// FalsePositives is every rejected death report, in probe order.
	FalsePositives []FalsePositiveRecord
	// OnFailure, when set, observes each detection (after the partition
	// map is updated and the active job aborted).
	OnFailure func(FailureRecord)
	// OnFalsePositive, when set, observes each rejected report.
	OnFalsePositive func(FalsePositiveRecord)
}

// StartWatchdog arms the heartbeat watchdog. Heartbeats must be ticking
// (Daemon.EnableHeartbeats) or every node will look hung after
// watchdogMisses polls. The watchdog polls forever; it is a daemon
// process and does not keep the engine alive by itself.
func (d *Daemon) StartWatchdog() *Watchdog {
	if d.wd != nil {
		return d.wd
	}
	w := &Watchdog{d: d}
	n := len(d.M.Nodes)
	w.lastBeat = make([]uint64, n)
	w.lastLive = make([]event.Time, n)
	w.stale = make([]int, n)
	w.dead = make([]bool, n)
	w.suspect = make([]bool, n)
	d.wd = w
	d.M.Reg.RegisterCounters("qdaemon/watchdog", func(emit telemetry.EmitFunc) {
		emit("polls", w.Polls)
		emit("peek_errors", w.PeekErrors)
		emit("probes", w.Probes)
		emit("false_positives", uint64(len(w.FalsePositives)))
		emit("deaths", uint64(len(w.Failures)))
		for _, f := range w.Failures {
			emit(fmt.Sprintf("detect_latency_ps/node%d", f.Rank), uint64(f.DetectLatency))
		}
	})
	d.M.Reg.RegisterHistograms("qdaemon", func(emit telemetry.HistEmitFunc) {
		emit("watchdog_detect_ps", w.DetectHist.Snapshot())
	})
	d.Eng.SpawnDaemon("qdaemon watchdog", w.loop)
	return w
}

// Watchdog returns the armed watchdog, or nil.
func (d *Daemon) Watchdog() *Watchdog { return d.wd }

// EnableHeartbeats starts every node kernel's liveness tick; see
// qos.Kernel.StartHeartbeat. Chaos/recovery runs call this after boot;
// the default event stream never carries heartbeats.
func (d *Daemon) EnableHeartbeats() {
	for _, k := range d.Kernels {
		k.StartHeartbeat(d.Eng, heartbeatPeriod)
	}
}

func (w *Watchdog) loop(p *event.Proc) {
	now := w.d.Eng.Now()
	for r := range w.lastLive {
		w.lastLive[r] = now
	}
	for {
		p.Sleep(watchdogPeriod)
		w.Polls++
		for r := range w.d.M.Nodes {
			if w.dead[r] || w.d.Part.Isolated(r) {
				continue
			}
			w.poll(p, r)
		}
	}
}

// Suspect files an external death report for a live-looking node — the
// operator (or a fault plan) claiming rank is dead. The next poll runs
// the liveness probe: a node making progress survives the report as a
// recorded false positive; a genuinely dead one is isolated through the
// normal path. Call from the watchdog's own (host) engine.
func (w *Watchdog) Suspect(rank int) {
	if rank < 0 || rank >= len(w.suspect) || w.dead[rank] {
		return
	}
	w.suspect[rank] = true
}

// poll observes one node over the side network and applies the death
// criteria.
func (w *Watchdog) poll(p *event.Proc, r int) {
	suspect := w.suspect[r]
	w.suspect[r] = false
	state, serr := w.d.peekWordOn(p, w.d.Mon, r, node.TelemetryAddr(node.TelemStateWord))
	beat, berr := uint64(0), error(nil)
	if serr == nil {
		beat, berr = w.d.peekWordOn(p, w.d.Mon, r, node.TelemetryAddr(node.TelemHeartbeatWord))
	}
	now := w.d.Eng.Now()
	switch {
	case serr != nil || berr != nil:
		// The side network itself failed us; treat like a missed beat.
		w.PeekErrors++
		w.stale[r]++
	case node.State(state) == node.Crashed:
		// The lifecycle state is authoritative hardware — no probe.
		w.declareDead(r, true, now)
		return
	case beat != w.lastBeat[r]:
		w.lastBeat[r] = beat
		w.lastLive[r] = now
		w.stale[r] = 0
	default:
		w.stale[r]++
	}
	if !suspect && w.stale[r] < watchdogMisses {
		return
	}
	// Isolation gate: frozen-heartbeat convictions and external death
	// reports both pass the JTAG liveness re-check before a board is
	// pulled from the partition. Only hardware-attested crashes skip it.
	dead, crashed := w.probe(p, r)
	now = w.d.Eng.Now()
	if !dead {
		rec := FalsePositiveRecord{Rank: r, At: now}
		w.FalsePositives = append(w.FalsePositives, rec)
		w.stale[r] = 0
		w.lastLive[r] = now
		if w.OnFalsePositive != nil {
			w.OnFalsePositive(rec)
		}
		return
	}
	w.declareDead(r, crashed, now)
}

// probe is the JTAG liveness re-check before isolation: re-read the
// lifecycle state (a Crashed read is authoritative), then watch the
// heartbeat across one poll period — progress refutes the report. All
// waiting is sim-clock, so accept and reject runs stay bit-identical.
func (w *Watchdog) probe(p *event.Proc, r int) (dead, crashed bool) {
	w.Probes++
	state, serr := w.d.peekWordOn(p, w.d.Mon, r, node.TelemetryAddr(node.TelemStateWord))
	if serr == nil && node.State(state) == node.Crashed {
		return true, true
	}
	beat0, b0err := w.d.peekWordOn(p, w.d.Mon, r, node.TelemetryAddr(node.TelemHeartbeatWord))
	p.Sleep(watchdogPeriod)
	beat1, b1err := w.d.peekWordOn(p, w.d.Mon, r, node.TelemetryAddr(node.TelemHeartbeatWord))
	if b0err == nil && b1err == nil && beat1 != beat0 {
		w.lastBeat[r] = beat1
		return false, false
	}
	return true, false
}

func (w *Watchdog) declareDead(r int, crashed bool, now event.Time) {
	// Everything the detection triggers — isolation, job abort, the
	// recovery the driver runs next — descends causally from here, so
	// open a fresh flow: the whole detect→isolate→recover sequence
	// exports as one Chrome-trace flow. Trace metadata only.
	eng := w.d.Eng
	flow := eng.NewFlow()
	prev := eng.SetFlow(flow)
	eng.MarkSpanBegin("failure-recovery")
	w.dead[r] = true
	rec := FailureRecord{
		Rank:          r,
		Crashed:       crashed,
		DetectedAt:    now,
		DetectLatency: now - w.lastLive[r],
	}
	w.DetectHist.Record(uint64(rec.DetectLatency))
	rec.Board, _ = w.d.Part.MarkFailed(r)
	w.Failures = append(w.Failures, rec)
	w.d.AbortJob(&AbortError{Job: w.d.activeJob, Rec: rec})
	if w.OnFailure != nil {
		w.OnFailure(rec)
	}
	eng.MarkSpanEnd("failure-recovery")
	eng.SetFlow(prev)
}
