package machine

import (
	"fmt"
	"hash/fnv"
	"sort"
	"testing"

	"qcdoc/internal/event"
	"qcdoc/internal/geom"
	"qcdoc/internal/node"
	"qcdoc/internal/ppc440"
	"qcdoc/internal/qmp"
	"qcdoc/internal/scupkt"
)

// TestTelemetryZeroPerturbation is the load-bearing contract of the
// observability layer: enabling every counter and attaching a flight
// recorder must leave the simulated event stream bit-identical — same
// event count, same time-ordered digest, same link checksums, same
// final time — as a run with telemetry off.
func TestTelemetryZeroPerturbation(t *testing.T) {
	shape := geom.MakeShape(4, 2, 2)
	e1, l1, n1, t1 := traceRun(t, shape, nil)
	e2, l2, n2, t2 := traceRun(t, shape, func(m *Machine) {
		m.EnableTelemetry()
		m.Eng.SetRecorder(event.NewRecorder(256))
	})
	if n1 != n2 {
		t.Fatalf("telemetry changed the event count: %d vs %d", n1, n2)
	}
	if e1 != e2 {
		t.Fatalf("telemetry changed the event order: %#x vs %#x", e1, e2)
	}
	if l1 != l2 {
		t.Fatalf("telemetry changed link checksums: %#x vs %#x", l1, l2)
	}
	if t1 != t2 {
		t.Fatalf("telemetry changed the final time: %v vs %v", t1, t2)
	}
}

func TestMachineTelemetrySnapshot(t *testing.T) {
	shape := geom.MakeShape(2, 2)
	eng := event.New()
	defer eng.Shutdown()
	m := Build(eng, DefaultConfig(shape))
	m.EnableTelemetry()
	if err := m.Boot(); err != nil {
		t.Fatal(err)
	}
	fold := geom.IdentityFold(shape)
	kern := ppc440.KernelCost{Name: "wilson", Flops: 4000, FPUOps: 2000, LoadBytes: 256, Streams: 1}
	err := m.RunSPMD("telem", func(rank int) node.Program {
		return func(ctx *node.Ctx) {
			ctx.N.Compute(ctx.P, kern)
			c := qmp.New(ctx, fold)
			c.GlobalSumFloat64(ctx.P, float64(rank))
			c.Barrier(ctx.P)
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	snap := m.Reg.Snapshot()
	at := eng.Now()
	agg := m.Stats()
	if snap.Counters["machine/scu/words_sent"] != agg.WordsSent || agg.WordsSent == 0 {
		t.Fatalf("machine counter %d, aggregate %+v", snap.Counters["machine/scu/words_sent"], agg)
	}
	if snap.Counters["machine/hssl/frames"] == 0 || snap.Counters["machine/hssl/bits"] == 0 {
		t.Fatalf("wire counters: %d frames, %d bits",
			snap.Counters["machine/hssl/frames"], snap.Counters["machine/hssl/bits"])
	}
	// Every node's every link has its counters, they agree with the SCU,
	// and summing them reproduces the machine-wide total — one source of
	// truth.
	var sum uint64
	for r, n := range m.Nodes {
		for _, l := range geom.AllLinks() {
			key := fmt.Sprintf("node%d/link/%s/words_sent", r, l)
			v, ok := snap.Counters[key]
			if !ok || v != n.SCU.LinkStats(l).WordsSent {
				t.Fatalf("%s = %d (present %v), SCU says %d", key, v, ok, n.SCU.LinkStats(l).WordsSent)
			}
			sum += v
		}
	}
	if sum != agg.WordsSent {
		t.Fatalf("links sum to %d, aggregate %d", sum, agg.WordsSent)
	}
	if _, ok := snap.Counters["node4/scu/words_sent"]; ok {
		t.Fatal("snapshot has a fifth node")
	}
	n0 := m.Nodes[0].SCU.Stats()
	if snap.Counters["node0/scu/words_sent"] != n0.WordsSent {
		t.Fatalf("node0 counter %d vs %d", snap.Counters["node0/scu/words_sent"], n0.WordsSent)
	}
	if snap.Counters["node0/cpu/kernels"] != 1 {
		t.Fatalf("node0 kernels = %d", snap.Counters["node0/cpu/kernels"])
	}
	// Barrier rides a global sum, so both tick.
	if snap.Counters["node0/cpu/global_sums"] != 2 || snap.Counters["node0/cpu/barriers"] != 1 {
		t.Fatalf("collectives: sums %d barriers %d",
			snap.Counters["node0/cpu/global_sums"], snap.Counters["node0/cpu/barriers"])
	}
	q := eng.QueueStats()
	if snap.Counters["host/event_queue/shard0/lane_appends"] != q.LaneAppends ||
		snap.Counters["host/event_queue/shard0/pending_high_water"] != q.HighWater || q.LaneAppends == 0 {
		t.Fatalf("event queue counters disagree with %+v", q)
	}
	// Derived gauges: the machine computed 4 x 4000 flops in at.
	wantFlops := 4 * 4000.0 / (float64(at) / float64(event.Second))
	if g := snap.Gauges["machine/sustained_gflops"] * 1e9; g < wantFlops*0.999 || g > wantFlops*1.001 {
		t.Fatalf("sustained %g, want %g", g, wantFlops)
	}
	if u := snap.Gauges["machine/link_utilization"]; u <= 0 || u > 1 {
		t.Fatalf("link utilization %g", u)
	}
	if snap.Gauges["machine/peak_gflops"] != PackagingFor(4, m.Cfg.Clock).PeakTeraflops*1e3 {
		t.Fatal("peak gauge disagrees with packaging")
	}
	eff := snap.Gauges["machine/efficiency"]
	if want := snap.Gauges["machine/sustained_gflops"] / snap.Gauges["machine/peak_gflops"]; eff < want*0.999 || eff > want*1.001 {
		t.Fatalf("efficiency %g, want %g", eff, want)
	}
	// Latency distributions (DESIGN.md §10): the global sum above must
	// have recorded a round trip on every node, and the per-link in-flight
	// distribution must cover every acked word.
	gs := snap.Histograms["machine/gsum_rtt_ps"]
	if gs.Count != 2*4 { // 2 collectives (sum + barrier) x 4 nodes
		t.Fatalf("gsum_rtt_ps count %d, want 8", gs.Count)
	}
	if gs.P50 == 0 || gs.P99 < gs.P50 || gs.Max < gs.P99 || gs.Max > uint64(at) {
		t.Fatalf("gsum_rtt_ps percentiles inconsistent: %+v", gs)
	}
	fl := snap.Histograms["machine/link_in_flight_ps"]
	if fl.Count == 0 || fl.P50 == 0 {
		t.Fatalf("link_in_flight_ps %+v", fl)
	}
}

// TestTelemetryDisabledSnapshotIsEmpty pins the pull-based design: a
// machine that never enabled telemetry answers a snapshot without
// reading a single source, and its per-node CPU counters stay nil.
func TestTelemetryDisabledSnapshotIsEmpty(t *testing.T) {
	eng := event.New()
	defer eng.Shutdown()
	m := Build(eng, DefaultConfig(geom.MakeShape(2)))
	if err := m.Boot(); err != nil {
		t.Fatal(err)
	}
	snap := m.Reg.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Gauges) != 0 || len(snap.Histograms) != 0 {
		t.Fatalf("disabled registry leaked: %d counters %d gauges %d histograms",
			len(snap.Counters), len(snap.Gauges), len(snap.Histograms))
	}
	for _, n := range m.Nodes {
		if n.Counters() != nil {
			t.Fatal("node counters enabled without EnableTelemetry")
		}
	}
}

// telemetryLines runs TestMachineTelemetrySnapshot's program on an
// enabled 2x2 machine and returns its snapshot's counters, sorted, as
// "key" and as "key value" lines.
func telemetryLines(t *testing.T) (keys, values []string) {
	t.Helper()
	shape := geom.MakeShape(2, 2)
	eng := event.New()
	defer eng.Shutdown()
	m := Build(eng, DefaultConfig(shape))
	m.EnableTelemetry()
	if err := m.Boot(); err != nil {
		t.Fatal(err)
	}
	fold := geom.IdentityFold(shape)
	kern := ppc440.KernelCost{Name: "wilson", Flops: 4000, FPUOps: 2000, LoadBytes: 256, Streams: 1}
	err := m.RunSPMD("telem", func(rank int) node.Program {
		return func(ctx *node.Ctx) {
			ctx.N.Compute(ctx.P, kern)
			c := qmp.New(ctx, fold)
			c.GlobalSumFloat64(ctx.P, float64(rank))
			c.Barrier(ctx.P)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := m.Reg.Snapshot()
	for _, k := range snap.Names() {
		keys = append(keys, k)
		values = append(values, fmt.Sprintf("%s %d", k, snap.Counters[k]))
	}
	return keys, values
}

// linesDigest is FNV-1a over the lines, each ended by a newline.
func linesDigest(lines []string) uint64 {
	h := fnv.New64a()
	for _, l := range lines {
		h.Write([]byte(l + "\n"))
	}
	return h.Sum64()
}

// TestTelemetryKeysPinned pins an enabled machine's counter snapshot:
// the same sorted keys, and the same values after the same program, as
// when every source registered at Build (804 counters), with
// machine/hssl/dropped the one addition.
func TestTelemetryKeysPinned(t *testing.T) {
	keys, values := telemetryLines(t)
	const dropped = "machine/hssl/dropped"
	i := sort.SearchStrings(keys, dropped)
	if i == len(keys) || keys[i] != dropped || values[i] != dropped+" 0" {
		t.Fatalf("no %q counter of 0 in the snapshot", dropped)
	}
	keys, values = append(keys[:i:i], keys[i+1:]...), append(values[:i:i], values[i+1:]...)
	const wantKeys, wantValues = 0xce7f14869c120682, 0x2406f7bd637a0a13
	if len(keys) != 804 || linesDigest(keys) != wantKeys || linesDigest(values) != wantValues {
		t.Fatalf("%d counters, keys %#x, values %#x; want 804, %#x, %#x",
			len(keys), linesDigest(keys), linesDigest(values), uint64(wantKeys), uint64(wantValues))
	}
}

// TestTelemetryRegistersOnEnable: a machine that never enabled
// telemetry holds no source of its own — its registry, switched on by
// hand, snapshots nothing — and no per-node source in particular.
func TestTelemetryRegistersOnEnable(t *testing.T) {
	eng := event.New()
	defer eng.Shutdown()
	m := Build(eng, DefaultConfig(geom.MakeShape(2, 2)))
	if err := m.Boot(); err != nil {
		t.Fatal(err)
	}
	m.Reg.SetEnabled(true)
	if snap := m.Reg.Snapshot(); len(snap.Counters) != 0 || len(snap.Gauges) != 0 || len(snap.Histograms) != 0 {
		t.Fatalf("a dark machine registered %d counters (the first %q), %d gauges, %d histograms",
			len(snap.Counters), snap.Names()[:min(1, len(snap.Counters))], len(snap.Gauges), len(snap.Histograms))
	}
}

// TestWireStatsCountDropped kills a wire between two sends of a burst:
// the frames it swallows count as dropped in the wire's stats, the
// machine-wide sum and the machine/hssl/dropped counter.
func TestWireStatsCountDropped(t *testing.T) {
	eng := event.New()
	defer eng.Shutdown()
	m := Build(eng, DefaultConfig(geom.MakeShape(2, 2)))
	m.EnableTelemetry()
	if err := m.Boot(); err != nil {
		t.Fatal(err)
	}
	w := m.Wire(1, geom.LinkAt(0))
	for i := 0; i < 5; i++ {
		if i == 2 {
			w.Kill()
		}
		if _, err := w.Send(scupkt.WireOf([]byte{byte(i), 0xAA})); err != nil {
			t.Fatal(err)
		}
	}
	if got := w.Stats().Dropped; got != 3 {
		t.Fatalf("killed wire dropped %d frames, want 3", got)
	}
	if got := m.WireStats().Dropped; got != 3 {
		t.Fatalf("WireStats().Dropped = %d, want 3", got)
	}
	if got := m.Reg.Snapshot().Counters["machine/hssl/dropped"]; got != 3 {
		t.Fatalf("machine/hssl/dropped = %d, want 3", got)
	}
}

// TestStatsAllocFree: summing the SCU counters of a node or of the whole
// machine allocates nothing; the sum stays on the stack.
func TestStatsAllocFree(t *testing.T) {
	eng := event.New()
	defer eng.Shutdown()
	m := Build(eng, DefaultConfig(geom.MakeShape(2, 2)))
	var sink uint64
	if a := testing.AllocsPerRun(10, func() { sink += m.Stats().WordsSent + m.Nodes[0].SCU.Stats().Resends }); a != 0 {
		t.Fatalf("Machine.Stats and SCU.Stats allocate %.0f objects, want 0", a)
	}
}
