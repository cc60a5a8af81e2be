package machine

import (
	"fmt"

	"qcdoc/internal/event"
	"qcdoc/internal/geom"
	"qcdoc/internal/hssl"
	"qcdoc/internal/telemetry"
)

// This file wires the machine into the telemetry layer (DESIGN.md §10):
// per-node and machine-wide counters, event queues, histograms and
// gauges register as reader closures at the first EnableTelemetry. A
// snapshot schedules no events: telemetry on or off, the simulated
// machine is bit-identical.

// registerTelemetry populates the machine's registry; see EnableTelemetry.
func (m *Machine) registerTelemetry() {
	for r, n := range m.Nodes {
		m.Reg.RegisterCounters(fmt.Sprintf("node%d/scu", r), func(emit telemetry.EmitFunc) {
			s := n.SCU.Stats()
			s.Each(emit)
		})
		m.Reg.RegisterCounters(fmt.Sprintf("node%d/link", r), func(emit telemetry.EmitFunc) {
			for _, l := range geom.AllLinks() {
				s := n.SCU.LinkStats(l)
				pre := l.String() + "/"
				s.Each(func(name string, v uint64) { emit(pre+name, v) })
			}
		})
		m.Reg.RegisterCounters(fmt.Sprintf("node%d/cpu", r), func(emit telemetry.EmitFunc) {
			if c := n.Counters(); c != nil {
				c.Each(emit)
			}
		})
	}
	m.Reg.RegisterCounters("machine/scu", func(emit telemetry.EmitFunc) {
		s := m.Stats()
		s.Each(emit)
	})
	m.Reg.RegisterCounters("machine/hssl", func(emit telemetry.EmitFunc) {
		w := m.WireStats()
		emit("frames", w.Frames)
		emit("bits", w.Bits)
		emit("corrupted", w.Corrupted)
		emit("dropped", w.Dropped)
	})
	m.Reg.RegisterCounters("host/event_queue", func(emit telemetry.EmitFunc) {
		for i, q := range m.queueStats() {
			pre := fmt.Sprintf("shard%d/", i)
			emit(pre+"pending_high_water", q.HighWater)
			emit(pre+"lane_appends", q.LaneAppends)
			emit(pre+"heap_fallbacks", q.HeapFallbacks)
		}
	})
	m.Reg.RegisterHistograms("machine", m.emitHistograms)
	pkg := PackagingFor(len(m.Nodes), m.Cfg.Clock)
	m.Reg.RegisterGauge("machine/link_utilization", m.LinkUtilization)
	m.Reg.RegisterGauge("machine/sustained_gflops", func() float64 { return m.SustainedFlops() / 1e9 })
	m.Reg.RegisterGauge("machine/peak_gflops", func() float64 { return pkg.PeakTeraflops * 1e3 })
	m.Reg.RegisterGauge("machine/efficiency", func() float64 {
		if peak := pkg.PeakTeraflops * 1e12; peak > 0 {
			return m.SustainedFlops() / peak
		}
		return 0
	})
	m.Reg.RegisterGauge("machine/power_watts", func() float64 { return pkg.PowerWatts })
}

// EnableTelemetry switches the whole layer on: the machine's sources
// register, the registry starts collecting, every node starts counting,
// and every link starts recording its latency distributions. Idempotent.
func (m *Machine) EnableTelemetry() {
	if !m.telemetryOn {
		m.telemetryOn = true
		m.registerTelemetry()
	}
	m.Reg.SetEnabled(true)
	for _, n := range m.Nodes {
		n.EnableCounters()
		n.SCU.EnableLinkHists()
	}
}

// emitHistograms merges the per-node and per-link latency distributions
// machine-wide and emits them in a fixed order. Snapshot-time only —
// the merge walks histograms the simulator already maintains; it never
// touches hot-path state.
func (m *Machine) emitHistograms(emit telemetry.HistEmitFunc) {
	var gsum, iter, ckpt, inflight, gap telemetry.Histogram
	for _, n := range m.Nodes {
		if c := n.Counters(); c != nil {
			gsum.Absorb(&c.GsumTime)
			iter.Absorb(&c.IterTime)
			ckpt.Absorb(&c.CkptWrite)
		}
		for _, l := range geom.AllLinks() {
			if lh := n.SCU.LinkHists(l); lh != nil {
				inflight.Absorb(&lh.InFlight)
				gap.Absorb(&lh.ResendGap)
			}
		}
	}
	emit("gsum_rtt_ps", gsum.Snapshot())
	emit("cg_iter_ps", iter.Snapshot())
	emit("ckpt_chunk_write_ps", ckpt.Snapshot())
	emit("link_in_flight_ps", inflight.Snapshot())
	emit("link_resend_gap_ps", gap.Snapshot())
}

// queueStats returns every shard engine's event-queue counters, shard 0
// first (one entry on a single-engine build). They describe the host's
// work, not the simulated machine: how deep the queue got and how much of
// its traffic the sorted-run lanes took.
func (m *Machine) queueStats() []event.QueueStats {
	if m.cluster == nil {
		return []event.QueueStats{m.Eng.QueueStats()}
	}
	qs := make([]event.QueueStats, m.cluster.NumShards())
	for i := range qs {
		qs[i] = m.cluster.Shard(i).QueueStats()
	}
	return qs
}

// WireStats sums HSSL wire counters over every wire in the torus.
func (m *Machine) WireStats() hssl.Stats {
	var total hssl.Stats
	for i := range m.torus.wires {
		s := m.torus.wires[i].Stats()
		total.Frames += s.Frames
		total.Bits += s.Bits
		total.Corrupted += s.Corrupted
		total.Dropped += s.Dropped
	}
	return total
}

// LinkUtilization is the fraction of the torus's aggregate serial
// capacity used so far: bits moved over (wires x link clock x elapsed
// time). Zero before anything has run.
func (m *Machine) LinkUtilization() float64 {
	now := m.Eng.Now()
	if now == 0 {
		return 0
	}
	capacity := float64(len(m.Nodes)*geom.NumLinks) * float64(m.Cfg.Clock) * (float64(now) / float64(event.Second))
	return float64(m.WireStats().Bits) / capacity
}

// SustainedFlops is the machine-wide achieved floating-point rate:
// useful flops retired (per the node counters) over elapsed simulated
// time. Zero when telemetry is disabled or nothing has run.
func (m *Machine) SustainedFlops() float64 {
	now := m.Eng.Now()
	if now == 0 {
		return 0
	}
	flops := 0.0
	for _, n := range m.Nodes {
		if c := n.Counters(); c != nil {
			flops += c.Flops
		}
	}
	return flops / (float64(now) / float64(event.Second))
}
