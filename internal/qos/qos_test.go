package qos

import (
	"fmt"
	"strings"
	"testing"

	"qcdoc/internal/ethjtag"
	"qcdoc/internal/event"
	"qcdoc/internal/geom"
	"qcdoc/internal/memsys"
	"qcdoc/internal/node"
)

// rig builds one node with a kernel attached to a two-port network
// (host + node).
func rig(t *testing.T) (*event.Engine, *Kernel, *ethjtag.Port) {
	t.Helper()
	eng := event.New()
	t.Cleanup(eng.Shutdown)
	nw := ethjtag.NewNetwork(eng)
	host := nw.Attach(ethjtag.HostAddr, ethjtag.HostEthernetBps)
	eth := nw.Attach(ethjtag.NodeEthAddr(0), ethjtag.NodeEthernetBps)
	n := node.New(eng, 0, geom.Coord{}, 500*event.MHz)
	n.LoadBootWord(0, 1)
	if err := n.StartBootKernel(); err != nil {
		t.Fatal(err)
	}
	k := NewKernel(n, eth, ethjtag.HostAddr)
	k.Start()
	return eng, k, host
}

// rpc sends one RPC and returns the reply payload.
func rpc(t *testing.T, eng *event.Engine, host *ethjtag.Port, msg string) string {
	t.Helper()
	var reply string
	eng.Spawn("host", func(p *event.Proc) {
		host.Send(ethjtag.Packet{Dst: ethjtag.NodeEthAddr(0), Port: ethjtag.PortRPC, Payload: msg})
		reply = host.Recv(p).Payload
	})
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	return reply
}

func TestStatusRPC(t *testing.T) {
	eng, _, host := rig(t)
	rep := rpc(t, eng, host, "status")
	if !strings.Contains(rep, "state=boot-kernel") {
		t.Fatalf("status = %q", rep)
	}
}

func TestRunKernelLoadProtocol(t *testing.T) {
	eng, k, host := rig(t)
	// START before any image packets must fail.
	var rep string
	eng.Spawn("host", func(p *event.Proc) {
		host.Send(ethjtag.Packet{Dst: ethjtag.NodeEthAddr(0), Port: ethjtag.PortBoot, Payload: "START"})
		rep = host.Recv(p).Payload
	})
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(rep, "err") {
		t.Fatalf("empty image accepted: %q", rep)
	}
	// Load image packets then START.
	eng.Spawn("host", func(p *event.Proc) {
		img := string(make([]byte, RunKernelPacketBytes))
		for i := 0; i < 10; i++ {
			host.Send(ethjtag.Packet{Dst: ethjtag.NodeEthAddr(0), Port: ethjtag.PortBoot, Payload: img})
		}
		host.Send(ethjtag.Packet{Dst: ethjtag.NodeEthAddr(0), Port: ethjtag.PortBoot, Payload: "START"})
		rep = host.Recv(p).Payload
	})
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if rep != "ok" {
		t.Fatalf("start = %q", rep)
	}
	if k.KernelPackets() != 10 {
		t.Fatalf("kernel packets %d", k.KernelPackets())
	}
	if k.Node.State() != node.RunKernel {
		t.Fatalf("state %v", k.Node.State())
	}
}

func TestRunRPCAndCompletion(t *testing.T) {
	eng, k, host := rig(t)
	k.Node.ForceReady()
	executed := false
	k.Programs["hello"] = func(ctx *node.Ctx) { executed = true }
	var msgs []string
	eng.Spawn("host", func(p *event.Proc) {
		host.Send(ethjtag.Packet{Dst: ethjtag.NodeEthAddr(0), Port: ethjtag.PortRPC, Payload: "run j1 hello"})
		for i := 0; i < 2; i++ { // launch ack + done report
			msgs = append(msgs, host.Recv(p).Payload)
		}
	})
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if !executed {
		t.Fatal("program did not run")
	}
	if msgs[0] != "ok j1" {
		t.Fatalf("ack = %q", msgs[0])
	}
	if !strings.HasPrefix(msgs[1], "done j1") || !strings.Contains(msgs[1], "parity=0") {
		t.Fatalf("completion = %q", msgs[1])
	}
}

func TestUnknownProgramAndRPC(t *testing.T) {
	eng, k, host := rig(t)
	k.Node.ForceReady()
	if rep := rpc(t, eng, host, "run j nothere"); !strings.HasPrefix(rep, "err") {
		t.Fatalf("reply %q", rep)
	}
	if rep := rpc(t, eng, host, "frob"); !strings.HasPrefix(rep, "err") {
		t.Fatalf("reply %q", rep)
	}
}

func TestPeek(t *testing.T) {
	eng, k, host := rig(t)
	k.Node.Mem.WriteWord(0x100, 0xABCD)
	if rep := rpc(t, eng, host, "peek 100"); rep != "0xabcd" {
		t.Fatalf("peek = %q", rep)
	}
}

// TestPeekRPCRejectsMalformed: a peek without one aligned address
// inside the node's memory is answered with an error, and a "0x" prefix
// (the form the reply prints) reads the word it names, not address 0.
func TestPeekRPCRejectsMalformed(t *testing.T) {
	eng, k, host := rig(t)
	k.Node.Mem.WriteWord(0, 0x1111)
	k.Node.Mem.WriteWord(0x10, 0x2222)
	top := memsys.DDRBase + memsys.DDRBytes - 8
	k.Node.Mem.WriteWord(top, 0x3333)
	for _, c := range []struct{ msg, want string }{
		{"peek", "err"},
		{"peek 10 18", "err"},
		{"peek 3", "err"},
		{"peek zz", "err"},
		{"peek 0x", "err"},
		{"peek ffffffffffff", "err"},
		{fmt.Sprintf("peek %x", top+8), "err"},
		{"peek 10000000000000000", "err"},
		{"peek 0x10", "0x2222"},
		{"peek 10", "0x2222"},
		{"peek 0", "0x1111"},
		{fmt.Sprintf("peek %#x", top), "0x3333"},
	} {
		rep := rpc(t, eng, host, c.msg)
		if c.want == "err" && !strings.HasPrefix(rep, "err: ") || c.want != "err" && rep != c.want {
			t.Errorf("%q = %q, want %s", c.msg, rep, c.want)
		}
	}
}

func TestFromCtxPanicsWithoutKernel(t *testing.T) {
	eng := event.New()
	defer eng.Shutdown()
	n := node.New(eng, 0, geom.Coord{}, 500*event.MHz)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	FromCtx(&node.Ctx{N: n})
}
