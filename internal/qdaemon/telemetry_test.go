package qdaemon

import (
	"strconv"
	"strings"
	"testing"

	"qcdoc/internal/event"
	"qcdoc/internal/geom"
	"qcdoc/internal/node"
	"qcdoc/internal/qos"
	"qcdoc/internal/scu"
)

// bootAndRun boots the machine and runs a program that moves real SCU
// traffic, so the counters fetched over the side network are non-trivial.
func bootAndRun(t *testing.T, d *Daemon, run func(fn func(p *event.Proc))) {
	t.Helper()
	d.LoadProgram("halo", func(rank int) node.Program {
		return func(ctx *node.Ctx) {
			n := ctx.N
			sendAddr := n.AllocWords(8)
			recvAddr := n.AllocWords(8)
			for i := 0; i < 8; i++ {
				n.Mem.WriteWord(sendAddr+8*uint64(i), uint64(rank+i))
			}
			rt, err := n.SCU.StartRecv(geom.Link{Dim: 0, Dir: geom.Bwd}, scu.Contiguous(recvAddr, 8))
			if err != nil {
				panic(err)
			}
			st, err := n.SCU.StartSend(geom.Link{Dim: 0, Dir: geom.Fwd}, scu.Contiguous(sendAddr, 8))
			if err != nil {
				panic(err)
			}
			st.Wait(ctx.P)
			rt.Wait(ctx.P)
			_ = qos.FromCtx(ctx)
		}
	})
	run(func(p *event.Proc) {
		if err := d.BootAll(p); err != nil {
			t.Error(err)
			return
		}
		if _, err := d.Run(p, "j", "halo"); err != nil {
			t.Error(err)
		}
	})
}

// TestHWStatOverSideNetwork fetches node state and SCU counters from a
// booted 16-node machine purely through OpReadWord peeks on the
// Ethernet/JTAG network and checks them word-for-word against the
// simulator-side scu.Stats.
func TestHWStatOverSideNetwork(t *testing.T) {
	_, d, run := harness(t, geom.MakeShape(4, 2, 2))
	bootAndRun(t, d, run)
	ctlBefore := d.Ctl.TxPackets
	run(func(p *event.Proc) {
		for r, n := range d.M.Nodes {
			st, got, err := d.HWStat(p, r)
			if err != nil {
				t.Errorf("hwstat %d: %v", r, err)
				return
			}
			if st != node.RunKernel {
				t.Errorf("node %d state %v", r, st)
			}
			if want := n.SCU.Stats(); got != want {
				t.Errorf("node %d: fetched %+v, simulator %+v", r, got, want)
			}
			if got.WordsSent == 0 {
				t.Errorf("node %d fetched zero traffic", r)
			}
		}
	})
	// The fetch itself is real side-network traffic: one request packet
	// per peeked word, at least (magic + state + NumStats) per node.
	minPkts := uint64(16 * (2 + scu.NumStats()))
	if sent := d.Ctl.TxPackets - ctlBefore; sent < minPkts {
		t.Fatalf("only %d control packets for the sweep, want >= %d", sent, minPkts)
	}
}

func TestLinkCountersOverSideNetwork(t *testing.T) {
	_, d, run := harness(t, geom.MakeShape(4, 2, 2))
	bootAndRun(t, d, run)
	links := []geom.Link{{Dim: 0, Dir: geom.Fwd}, {Dim: 0, Dir: geom.Bwd}, {Dim: 1, Dir: geom.Fwd}}
	run(func(p *event.Proc) {
		for _, l := range links {
			got, err := d.LinkCounters(p, 3, l)
			if err != nil {
				t.Errorf("link %v: %v", l, err)
				return
			}
			if want := d.M.Nodes[3].SCU.LinkStats(l); got != want {
				t.Errorf("link %v: fetched %+v, simulator %+v", l, got, want)
			}
		}
	})
	if _, err := (&Daemon{M: d.M}).PeekWord(nil, -1, 0); err == nil {
		t.Fatal("peek on bad rank accepted")
	}
}

func TestQcshTelemetryCommands(t *testing.T) {
	_, d, run := harness(t, geom.MakeShape(4, 2, 2))
	sh := &Qcsh{D: d}
	bootAndRun(t, d, run)
	run(func(p *event.Proc) {
		// hwstat, one node and the sweep.
		out, err := sh.Exec(p, "hwstat 0")
		if err != nil {
			t.Error(err)
			return
		}
		s0 := d.M.Nodes[0].SCU.Stats()
		if !strings.Contains(out, "node0 run-kernel") || !strings.Contains(out, "sent "+itoa(s0.WordsSent)) {
			t.Errorf("hwstat 0: %q", out)
		}
		out, err = sh.Exec(p, "hwstat")
		if err != nil {
			t.Error(err)
			return
		}
		if lines := strings.Split(out, "\n"); len(lines) != 16 {
			t.Errorf("hwstat sweep: %d lines", len(lines))
		}
		// counters: aggregate and per-link, values matching scu.Stats.
		out, err = sh.Exec(p, "counters 2")
		if err != nil {
			t.Error(err)
			return
		}
		s2 := d.M.Nodes[2].SCU.Stats()
		if !strings.Contains(out, "words_sent "+itoa(s2.WordsSent)) ||
			!strings.Contains(out, "acks_sent "+itoa(s2.AcksSent)) {
			t.Errorf("counters 2: %q", out)
		}
		out, err = sh.Exec(p, "counters 2 +0")
		if err != nil {
			t.Error(err)
			return
		}
		l2 := d.M.Nodes[2].SCU.LinkStats(geom.Link{Dim: 0, Dir: geom.Fwd})
		if !strings.Contains(out, "link +0") || !strings.Contains(out, "words_sent "+itoa(l2.WordsSent)) {
			t.Errorf("counters 2 +0: %q", out)
		}
		// Bad arguments fail cleanly.
		for _, bad := range []string{"hwstat 99", "counters", "counters 99", "counters 0 +9", "counters 0 q0"} {
			if _, err := sh.Exec(p, bad); err == nil {
				t.Errorf("%q accepted", bad)
			}
		}
		// trace: off by default, then on, record something, dump, off.
		if _, err := sh.Exec(p, "trace"); err == nil {
			t.Error("trace dump with recorder off accepted")
		}
		// A ring past the bound is refused before anything is allocated.
		if _, err := sh.Exec(p, "trace on 1048577"); err == nil || !strings.Contains(err.Error(), "bad trace size") || d.Eng.Recorder() != nil {
			t.Errorf("trace on 1048577: %v, recorder %v", err, d.Eng.Recorder() != nil)
		}
		out, err = sh.Exec(p, "trace on 128")
		if err != nil || !strings.Contains(out, "128") {
			t.Errorf("trace on: %q, %v", out, err)
		}
		if _, err := sh.Exec(p, "status 1"); err != nil { // generate events
			t.Error(err)
		}
		out, err = sh.Exec(p, "trace 8")
		if err != nil {
			t.Error(err)
			return
		}
		if !strings.Contains(out, "flight recorder:") || !strings.Contains(out, "seq=") {
			t.Errorf("trace dump: %q", out)
		}
		if out, err = sh.Exec(p, "trace off"); err != nil || !strings.Contains(out, "off") {
			t.Errorf("trace off: %q, %v", out, err)
		}
	})
}

func itoa(v uint64) string { return strconv.FormatUint(v, 10) }
