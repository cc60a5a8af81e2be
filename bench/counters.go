package main

import (
	"qcdoc/internal/geom"
	"qcdoc/internal/machine"
	"qcdoc/internal/telemetry"
)

// machineCounters adds a finished machine's public counters to m: SCU
// and wire totals always, the node cost-model and collective counters
// when telemetry was enabled on it, merging the nodes' global-sum
// round-trip distributions into gsum.
func machineCounters(m map[string]float64, mc *machine.Machine, gsum *telemetry.HistogramSnapshot) {
	st := mc.Stats()
	m["scu.words_sent"] += float64(st.WordsSent)
	m["_scu.words_received"] += float64(st.WordsReceived)
	m["scu.acks_sent"] += float64(st.AcksSent)
	m["scu.resends"] += float64(st.Resends)
	m["scu.retrains"] += float64(st.Retrains)
	m["scu.link_failures"] += float64(st.LinkFailures)
	for r := range mc.Nodes {
		for _, l := range geom.AllLinks() {
			ws := mc.Wire(r, l).Stats()
			m["hssl.frames"] += float64(ws.Frames)
			m["hssl.bits"] += float64(ws.Bits)
			m["hssl.corrupted"] += float64(ws.Corrupted)
			m["hssl.dropped"] += float64(ws.Dropped)
		}
	}
	m["_machine.link_utilization_sum"] += mc.LinkUtilization()
	m["_machine.count"]++
	for _, n := range mc.Nodes {
		c := n.Counters()
		if c == nil {
			continue
		}
		m["ppc440.kernels"] += float64(c.Kernels)
		m["ppc440.flops"] += c.Flops
		m["ppc440.compute_cycles"] += c.ComputeCycles
		m["ppc440.memory_cycles"] += c.MemoryCycles
		m["_ppc440.memory_bound"] += float64(c.MemoryBound)
		m["memsys.edram_bytes"] += float64(c.Mem.EDRAMBytes)
		m["memsys.ddr_bytes"] += float64(c.Mem.DDRBytes)
		m["memsys.prefetch_hits"] += float64(c.Mem.PrefetchHits)
		m["memsys.page_misses"] += float64(c.Mem.PageMisses)
		m["qmp.global_sums"] += float64(c.GlobalSums)
		*gsum = gsum.Merge(c.GsumTime.Snapshot())
	}
}

// finishCounters turns the accumulated totals into the ledger's ratios
// and drops the helper keys (those starting with an underscore, except
// the per-operator application counts derive() still needs).
func finishCounters(m map[string]float64, gsum *telemetry.HistogramSnapshot) {
	m["qmp.gsum_sim_ns_p50"] = float64(gsum.P50) / 1000
	ratio := func(name string, num, den float64) {
		if den > 0 {
			m[name] = num / den
		}
	}
	words := m["scu.words_sent"]
	ratio("event.events_per_word", m["event.events"], words)
	ratio("hssl.frames_per_word", m["hssl.frames"], words)
	ratio("scu.goodput_ratio", m["_scu.words_received"], words+m["scu.resends"])
	ratio("ppc440.memory_bound_ratio", m["_ppc440.memory_bound"], m["ppc440.kernels"])
	ratio("machine.link_utilization", m["_machine.link_utilization_sum"], m["_machine.count"])
	for _, k := range []string{"_scu.words_received", "_ppc440.memory_bound", "_machine.link_utilization_sum", "_machine.count"} {
		delete(m, k)
	}
}
