package qdaemon

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"qcdoc/internal/ethjtag"
	"qcdoc/internal/event"
	"qcdoc/internal/geom"
	"qcdoc/internal/node"
)

// dropNth returns a FaultFunc that drops exactly the nth packet (1-based)
// matching pred, and nothing else.
func dropNth(n int, pred func(*ethjtag.Packet) bool) ethjtag.FaultFunc {
	seen := 0
	return func(pkt *ethjtag.Packet) ethjtag.FaultVerdict {
		if !pred(pkt) {
			return ethjtag.FaultNone
		}
		seen++
		if seen == n {
			return ethjtag.FaultDrop
		}
		return ethjtag.FaultNone
	}
}

// isJTAGReply matches Ethernet/JTAG controller replies (node JTAG port ->
// host): the acks whose loss used to wedge BootAll forever on a bare
// Recv.
func isJTAGReply(pkt *ethjtag.Packet) bool {
	return pkt.Port == ethjtag.PortJTAG && pkt.Src >= ethjtag.NodeAddrBase
}

// The boot path's regression for the lost-ack deadlock: drop exactly one
// boot-load ack; the exchange times out, retransmits, and the boot
// completes. Before the retry primitive this test hung forever.
func TestBootSurvivesDroppedAck(t *testing.T) {
	_, d, run := harness(t, geom.MakeShape(2, 2))
	d.Net.Fault = dropNth(1, isJTAGReply)
	var bootErr error
	run(func(p *event.Proc) { bootErr = d.BootAll(p) })
	if bootErr != nil {
		t.Fatal(bootErr)
	}
	for r, n := range d.M.Nodes {
		if n.State() != node.RunKernel {
			t.Fatalf("node %d state %v", r, n.State())
		}
	}
	st := d.RPCStats()
	if st.Timeouts != 1 || st.Retries != 1 {
		t.Fatalf("rpc stats %+v, want exactly one timeout and one retry", st)
	}
	if st.Failures != 0 {
		t.Fatalf("rpc stats %+v: exchange reported failure", st)
	}
	if d.Net.FaultDropped != 1 {
		t.Fatalf("dropped %d packets, want 1", d.Net.FaultDropped)
	}
	// The retransmitted OpLoadBoot re-executed on the node: one extra
	// boot word on that node, none elsewhere.
	if got := d.M.Nodes[0].BootWords(); got != BootKernelPackets+1 {
		t.Fatalf("node 0 boot words %d, want %d", got, BootKernelPackets+1)
	}
}

// TestExchangeFailureNamesTransaction pins the text of an exhausted
// exchange's error: the transaction is described only on this path, and
// the words must be the ones the daemon always printed.
func TestExchangeFailureNamesTransaction(t *testing.T) {
	for _, tc := range []struct {
		drop func(*ethjtag.Packet) bool
		want string
	}{
		{isJTAGReply, "qdaemon: node 0 jtag op 1 addr 0x0: no reply after 6 attempts"},
		{func(pkt *ethjtag.Packet) bool { return pkt.Port == ethjtag.PortBoot && pkt.Src >= ethjtag.NodeAddrBase },
			"qdaemon: node 0 run-kernel start: no reply after 6 attempts"},
	} {
		_, d, run := harness(t, geom.MakeShape(2))
		d.Net.Fault = func(pkt *ethjtag.Packet) ethjtag.FaultVerdict {
			if tc.drop(pkt) {
				return ethjtag.FaultDrop
			}
			return ethjtag.FaultNone
		}
		var err error
		run(func(p *event.Proc) { err = d.BootAll(p) })
		if err == nil || err.Error() != tc.want {
			t.Errorf("boot error %q, want %q", err, tc.want)
		}
	}
}

// Dropping the non-idempotent OpStartBoot ack exercises the status
// disambiguation: the retransmitted start is refused (the node is
// already out of reset), and the follow-up OpStatus proves the first
// start took.
func TestBootSurvivesDroppedStartAck(t *testing.T) {
	_, d, run := harness(t, geom.MakeShape(2))
	// Reply 101 from a node's JTAG port is the OpStartBoot ack (after
	// 100 load acks).
	d.Net.Fault = dropNth(101, isJTAGReply)
	var bootErr error
	run(func(p *event.Proc) { bootErr = d.BootAll(p) })
	if bootErr != nil {
		t.Fatal(bootErr)
	}
	if st := d.M.Nodes[0].State(); st != node.RunKernel {
		t.Fatalf("node 0 state %v", st)
	}
	if st := d.RPCStats(); st.Timeouts == 0 {
		t.Fatalf("rpc stats %+v: dropped start ack cost no timeout", st)
	}
}

// A lost launch ack must not wedge Run: the launch is retransmitted, the
// kernel refuses the duplicate ("already running"), and Run counts the
// node as launched.
func TestRunSurvivesDroppedLaunchAck(t *testing.T) {
	// An "ok <job>" launch ack is an RPC-port reply from a node Ethernet
	// address to the host.
	isAck := func(pkt *ethjtag.Packet) bool {
		return pkt.Port == ethjtag.PortRPC && pkt.Src >= ethjtag.NodeAddrBase
	}
	// launch boots the machine, drops launch acks by drop, runs the job,
	// and returns every launch request in the order it entered the switch.
	launch := func(t *testing.T, shape geom.Shape, drop ethjtag.FaultFunc) []ethjtag.Addr {
		_, d, run := harness(t, shape)
		d.LoadProgram("napper", func(rank int) node.Program {
			return func(ctx *node.Ctx) { ctx.P.Sleep(5 * event.Millisecond) }
		})
		var reports []string
		var launches []ethjtag.Addr
		var runErr error
		run(func(p *event.Proc) {
			if err := d.BootAll(p); err != nil {
				t.Error(err)
				return
			}
			d.Net.Fault = func(pkt *ethjtag.Packet) ethjtag.FaultVerdict {
				if pkt.Port == ethjtag.PortRPC && strings.HasPrefix(pkt.Payload, "run ") {
					launches = append(launches, pkt.Dst)
				}
				return drop(pkt)
			}
			reports, runErr = d.Run(p, "j", "napper")
		})
		if runErr != nil {
			t.Fatal(runErr)
		}
		if len(reports) != shape.Volume() {
			t.Fatalf("%d completion reports, want %d", len(reports), shape.Volume())
		}
		if st := d.RPCStats(); st.Timeouts != 1 || st.Retries != uint64(len(launches)-shape.Volume()) {
			t.Fatalf("rpc stats %+v after %d launch requests: want one timeout and a retry per repeat",
				st, len(launches))
		}
		return launches
	}

	// Exactly one ack was dropped, so the timeout retransmits to exactly
	// one straggler.
	t.Run("first ack", func(t *testing.T) {
		if launches := launch(t, geom.MakeShape(2, 2), dropNth(1, isAck)); len(launches) != 5 {
			t.Fatalf("%d launch requests, want 4 + 1 retry", len(launches))
		}
	})

	// Every rank's first ack is lost, so every rank is retried, and the
	// retries leave in rank order: the launch traffic, and with it the
	// event stream, must not depend on the pending map's iteration order.
	// At 16 ranks a map-ordered retransmit is out of rank order on
	// essentially every run.
	t.Run("every rank's first ack", func(t *testing.T) {
		shape := geom.MakeShape(2, 2, 2, 2)
		dropped := map[ethjtag.Addr]bool{}
		launches := launch(t, shape, func(pkt *ethjtag.Packet) ethjtag.FaultVerdict {
			if !isAck(pkt) || dropped[pkt.Src] {
				return ethjtag.FaultNone
			}
			dropped[pkt.Src] = true
			return ethjtag.FaultDrop
		})
		var want []ethjtag.Addr
		for pass := 0; pass < 2; pass++ {
			for r := 0; r < shape.Volume(); r++ {
				want = append(want, ethjtag.NodeEthAddr(r))
			}
		}
		if !slices.Equal(launches, want) {
			t.Fatalf("launch requests by destination:\n got %#x\nwant %#x (launch, then retries in rank order)",
				launches, want)
		}
	})
}

// chaosResult captures the observable outcome of one watchdog scenario
// for determinism comparison.
type chaosResult struct {
	rec      FailureRecord
	killedAt event.Time
	isolated bool
	healthy  int
	executed uint64
	endedAt  event.Time
}

// runWatchdogScenario boots a 2x2x2 machine with heartbeats and the
// watchdog armed, launches a long sleeper job, injects kill(victim) at
// the given time, and returns the detection outcome.
func runWatchdogScenario(t *testing.T, victim int, at event.Time, kill func(*node.Node)) chaosResult {
	t.Helper()
	eng, d, run := harness(t, geom.MakeShape(2, 2, 2))
	d.LoadProgram("sleeper", func(rank int) node.Program {
		return func(ctx *node.Ctx) { ctx.P.Sleep(50 * event.Millisecond) }
	})
	var res chaosResult
	var runErr error
	run(func(p *event.Proc) {
		if err := d.BootAll(p); err != nil {
			t.Error(err)
			return
		}
		d.EnableHeartbeats()
		d.StartWatchdog()
		eng.After(at, func() {
			res.killedAt = eng.Now()
			// The harness kills the victim directly: the test machine is single-shard.
			kill(d.M.Nodes[victim])
		})
		_, runErr = d.Run(p, "job", "sleeper")
		eng.Stop() // survivors' heartbeats would tick forever
	})
	var abort *AbortError
	if !errors.As(runErr, &abort) {
		t.Fatalf("Run returned %v, want *AbortError", runErr)
	}
	res.rec = abort.Rec
	res.isolated = d.Part.Isolated(victim)
	res.healthy = d.Part.HealthyCount()
	res.executed = eng.Executed()
	res.endedAt = eng.Now()
	return res
}

// A crashed node's lifecycle state reads Crashed over JTAG: the watchdog
// detects it on the next poll, isolates the daughterboard (both of its
// nodes), and aborts the job — identically across two runs.
func TestWatchdogDetectsCrash(t *testing.T) {
	run := func() chaosResult {
		return runWatchdogScenario(t, 3, 2*event.Millisecond, (*node.Node).Crash)
	}
	r1 := run()
	r2 := run()

	if r1.rec.Rank != 3 || !r1.rec.Crashed {
		t.Fatalf("detected %+v, want crash of rank 3", r1.rec)
	}
	if r1.rec.Board != BoardOf(3) {
		t.Fatalf("failed board %d, want %d", r1.rec.Board, BoardOf(3))
	}
	if !r1.isolated {
		t.Fatal("victim not isolated from the partition map")
	}
	// The whole daughterboard goes: rank 2 (the board partner) too.
	if r1.healthy != 6 {
		t.Fatalf("healthy ranks %d, want 6 (one daughterboard isolated)", r1.healthy)
	}
	if r1.rec.DetectedAt <= r1.killedAt {
		t.Fatalf("detected at %v, before the crash at %v", r1.rec.DetectedAt, r1.killedAt)
	}
	// Crash detection is a state read: at most one poll period plus the
	// peek round trips after injection.
	if gap := r1.rec.DetectedAt - r1.killedAt; gap > event.Millisecond {
		t.Fatalf("crash detection took %v after the kill", gap)
	}
	if r1 != r2 {
		t.Fatalf("watchdog runs diverged:\n  %+v\n  %+v", r1, r2)
	}
}

// A hung node still reports app-running over JTAG; only the frozen
// heartbeat betrays it. Detection therefore takes watchdogMisses poll
// periods.
func TestWatchdogDetectsHang(t *testing.T) {
	run := func() chaosResult {
		return runWatchdogScenario(t, 5, 2*event.Millisecond, (*node.Node).Hang)
	}
	r1 := run()
	r2 := run()

	if r1.rec.Rank != 5 || r1.rec.Crashed {
		t.Fatalf("detected %+v, want hang of rank 5", r1.rec)
	}
	if !r1.isolated || r1.healthy != 6 {
		t.Fatalf("isolation wrong: isolated=%v healthy=%d", r1.isolated, r1.healthy)
	}
	// Three consecutive stale polls at 500 us each: latency covers at
	// least the miss window.
	if r1.rec.DetectLatency < 1500*event.Microsecond {
		t.Fatalf("hang detect latency %v, want >= 3 poll periods", r1.rec.DetectLatency)
	}
	if r1 != r2 {
		t.Fatalf("watchdog runs diverged:\n  %+v\n  %+v", r1, r2)
	}
}

// fpResult captures the observable outcome of a false-positive scenario
// for determinism comparison.
type fpResult struct {
	falsePositives int
	fpRank         int
	fpAt           event.Time
	probes         uint64
	failures       int
	isolated       bool
	healthy        int
	executed       uint64
	endedAt        event.Time
}

// A live node reported dead must NOT be isolated: the report forces the
// JTAG liveness re-check, the probe sees heartbeat progress, and the
// report is recorded as a false positive — bit-identically across runs.
func TestWatchdogRejectsFalsePositive(t *testing.T) {
	run := func() fpResult {
		eng, d, run := harness(t, geom.MakeShape(2, 2, 2))
		d.LoadProgram("sleeper", func(rank int) node.Program {
			return func(ctx *node.Ctx) { ctx.P.Sleep(10 * event.Millisecond) }
		})
		var res fpResult
		var runErr error
		run(func(p *event.Proc) {
			if err := d.BootAll(p); err != nil {
				t.Error(err)
				return
			}
			d.EnableHeartbeats()
			wd := d.StartWatchdog()
			eng.After(2*event.Millisecond, func() { wd.Suspect(3) })
			_, runErr = d.Run(p, "job", "sleeper")
			eng.Stop()
		})
		if runErr != nil {
			t.Fatalf("job aborted on a false report: %v", runErr)
		}
		wd := d.Watchdog()
		res.falsePositives = len(wd.FalsePositives)
		if res.falsePositives > 0 {
			res.fpRank = wd.FalsePositives[0].Rank
			res.fpAt = wd.FalsePositives[0].At
		}
		res.probes = wd.Probes
		res.failures = len(wd.Failures)
		res.isolated = d.Part.Isolated(3)
		res.healthy = d.Part.HealthyCount()
		res.executed = eng.Executed()
		res.endedAt = eng.Now()
		return res
	}
	r1 := run()
	r2 := run()

	if r1.falsePositives != 1 || r1.fpRank != 3 {
		t.Fatalf("false positives %d (rank %d), want exactly one on rank 3",
			r1.falsePositives, r1.fpRank)
	}
	if r1.probes == 0 {
		t.Fatal("report accepted without a liveness probe")
	}
	if r1.failures != 0 || r1.isolated || r1.healthy != 8 {
		t.Fatalf("live node isolated on a false report: failures=%d isolated=%v healthy=%d",
			r1.failures, r1.isolated, r1.healthy)
	}
	if r1.fpAt <= 2*event.Millisecond {
		t.Fatalf("rejection at %v, before the report", r1.fpAt)
	}
	if r1 != r2 {
		t.Fatalf("false-positive runs diverged:\n  %+v\n  %+v", r1, r2)
	}
}

// A report against a genuinely hung node passes the probe and is
// isolated through the normal path — the probe gate accepts real
// deaths, it does not mask them.
func TestWatchdogSuspectConfirmsHungNode(t *testing.T) {
	eng, d, run := harness(t, geom.MakeShape(2, 2, 2))
	d.LoadProgram("sleeper", func(rank int) node.Program {
		return func(ctx *node.Ctx) { ctx.P.Sleep(50 * event.Millisecond) }
	})
	var runErr error
	run(func(p *event.Proc) {
		if err := d.BootAll(p); err != nil {
			t.Error(err)
			return
		}
		d.EnableHeartbeats()
		wd := d.StartWatchdog()
		eng.After(2*event.Millisecond, func() {
			// The harness hangs the victim directly: the test machine is single-shard.
			d.M.Nodes[5].Hang()
			wd.Suspect(5)
		})
		_, runErr = d.Run(p, "job", "sleeper")
		eng.Stop()
	})
	var abort *AbortError
	if !errors.As(runErr, &abort) {
		t.Fatalf("Run returned %v, want *AbortError", runErr)
	}
	wd := d.Watchdog()
	if abort.Rec.Rank != 5 || abort.Rec.Crashed {
		t.Fatalf("detected %+v, want hang of rank 5", abort.Rec)
	}
	if wd.Probes == 0 {
		t.Fatal("suspect isolated without a probe")
	}
	if len(wd.FalsePositives) != 0 {
		t.Fatalf("%d false positives recorded for a real hang", len(wd.FalsePositives))
	}
	if !d.Part.Isolated(5) {
		t.Fatal("confirmed-dead node not isolated")
	}
	// The report short-circuits the miss window: detection lands well
	// before the three stale polls the unreported hang path needs.
	if abort.Rec.DetectLatency >= 1500*event.Microsecond {
		t.Fatalf("suspect-path detection took %v, want under 3 poll periods", abort.Rec.DetectLatency)
	}
}
