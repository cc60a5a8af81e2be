package ethjtag

import (
	"errors"
	"testing"

	"qcdoc/internal/event"
)

func TestAddressing(t *testing.T) {
	if NodeEthAddr(0) == NodeJTAGAddr(0) {
		t.Fatal("the two per-ASIC connections must have distinct addresses")
	}
	if NodeEthAddr(1) != NodeAddrBase+2 {
		t.Fatalf("addr = %#x", NodeEthAddr(1))
	}
}

func TestPointToPoint(t *testing.T) {
	eng := event.New()
	defer eng.Shutdown()
	nw := NewNetwork(eng)
	a := nw.Attach(10, HostEthernetBps)
	b := nw.Attach(20, NodeEthernetBps)
	var got Packet
	var at event.Time
	eng.SpawnDaemon("rx", func(p *event.Proc) {
		for {
			got = b.Recv(p)
			at = p.Now()
		}
	})
	if err := a.Send(Packet{Dst: 20, Port: PortRPC, Payload: "hello"}); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if got.Payload != "hello" || got.Src != 10 || got.Port != PortRPC {
		t.Fatalf("got %+v", got)
	}
	// (5+54) bytes at 1 Gbit/s = 472 ns serialization + 10 us latency.
	want := 472*event.Nanosecond + 10*event.Microsecond
	if at != want {
		t.Fatalf("arrived at %v, want %v", at, want)
	}
}

func TestSerializationAtLineRate(t *testing.T) {
	// Two packets from a 100 Mbit node port serialize back to back.
	eng := event.New()
	defer eng.Shutdown()
	nw := NewNetwork(eng)
	a := nw.Attach(1, NodeEthernetBps)
	b := nw.Attach(2, HostEthernetBps)
	var times []event.Time
	eng.SpawnDaemon("rx", func(p *event.Proc) {
		for {
			b.Recv(p)
			times = append(times, p.Now())
		}
	})
	payload := string(make([]byte, 446)) // 500 bytes framed = 40 us at 100 Mbit
	a.Send(Packet{Dst: 2, Payload: payload})
	a.Send(Packet{Dst: 2, Payload: payload})
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(times) != 2 {
		t.Fatalf("%d packets", len(times))
	}
	if d := times[1] - times[0]; d != 40*event.Microsecond {
		t.Fatalf("inter-arrival %v, want 40us", d)
	}
}

// TestBroadcast also pins the fan-out order: deliveries land at one
// picosecond and dispatch in scheduling order, so the switch must
// schedule them in address order whatever order the ports attached in.
// A map-ordered fan-out fails here.
func TestBroadcast(t *testing.T) {
	eng := event.New()
	defer eng.Shutdown()
	nw := NewNetwork(eng)
	h := nw.Attach(HostAddr, HostEthernetBps)
	const ports = 16
	var order []Addr
	for i := 0; i < ports; i++ {
		addr := NodeEthAddr((7 * i) % ports) // 0, 7, 14, 5, ...: scrambled
		nw.Attach(addr, NodeEthernetBps).OnPacket(func(Packet) {
			order = append(order, addr)
		})
	}
	h.Send(Packet{Dst: Broadcast, Payload: "boot?"})
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(order) != ports {
		t.Fatalf("broadcast reached %d of %d", len(order), ports)
	}
	for i := range order {
		if order[i] != NodeEthAddr(i) {
			t.Fatalf("delivery order %#x, want ascending addresses", order)
		}
	}
}

func TestNoRoute(t *testing.T) {
	eng := event.New()
	defer eng.Shutdown()
	nw := NewNetwork(eng)
	a := nw.Attach(1, HostEthernetBps)
	if err := a.Send(Packet{Dst: 99}); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("err = %v", err)
	}
	if nw.Dropped != 1 {
		t.Fatal("drop not counted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate attach not rejected")
		}
	}()
	nw.Attach(1, HostEthernetBps)
}

// fakeTarget is a minimal chip for controller tests.
type fakeTarget struct {
	mem     map[uint64]uint64
	boot    int
	started bool
}

func (f *fakeTarget) ReadWord(a uint64) uint64     { return f.mem[a] }
func (f *fakeTarget) WriteWord(a uint64, w uint64) { f.mem[a] = w }
func (f *fakeTarget) LoadBootWord(a uint64, w uint64) {
	f.mem[a] = w
	f.boot++
}
func (f *fakeTarget) StartBootKernel() error {
	if f.boot == 0 {
		return errors.New("no code")
	}
	f.started = true
	return nil
}
func (f *fakeTarget) StateCode() uint64 {
	if f.started {
		return 1
	}
	return 0
}

func TestJTAGControllerProtocol(t *testing.T) {
	eng := event.New()
	defer eng.Shutdown()
	nw := NewNetwork(eng)
	host := nw.Attach(HostAddr, HostEthernetBps)
	jp := nw.Attach(NodeJTAGAddr(0), NodeEthernetBps)
	tgt := &fakeTarget{mem: map[uint64]uint64{}}
	ctl := &JTAGController{Port: jp, Target: tgt}
	ctl.Start()

	var replies []Packet
	done := make(chan struct{})
	_ = done
	eng.Spawn("host", func(p *event.Proc) {
		send := func(op JTAGOp, addr, data uint64) Packet {
			host.Send(Packet{Dst: NodeJTAGAddr(0), Port: PortJTAG, JTAG: JTAGCmd{op, addr, data}})
			return host.Recv(p)
		}
		// Starting with no code fails.
		r := send(OpStartBoot, 0, 0)
		replies = append(replies, r)
		// Load 3 words, start, peek one back, check status.
		send(OpLoadBoot, 0, 111)
		send(OpLoadBoot, 8, 222)
		send(OpLoadBoot, 16, 333)
		replies = append(replies, send(OpStartBoot, 0, 0))
		replies = append(replies, send(OpReadWord, 8, 0))
		replies = append(replies, send(OpStatus, 0, 0))
		replies = append(replies, send(0x7F, 8, 0))
		// Non-JTAG packets to the JTAG port are ignored (it answers only
		// JTAG UDP).
		host.Send(Packet{Dst: NodeJTAGAddr(0), Port: PortRPC, Payload: "ping"})
	})
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(replies) != 5 {
		t.Fatalf("%d replies", len(replies))
	}
	if replies[0].JTAG.Data != 1 {
		t.Fatal("premature boot not refused")
	}
	if replies[1].JTAG.Data != 0 {
		t.Fatal("boot failed after load")
	}
	if r := replies[2].JTAG; r.Addr != 8 || r.Data != 222 {
		t.Fatalf("peek = %v @ %v", r.Data, r.Addr)
	}
	if replies[3].JTAG.Data != 1 {
		t.Fatal("status wrong")
	}
	if r := replies[4].JTAG; r != (JTAGCmd{Data: ^uint64(0)}) {
		t.Fatalf("unknown op answered %+v, want the error reply", r)
	}
	if !tgt.started || tgt.boot != 3 {
		t.Fatalf("target state: %+v", tgt)
	}
}

// clockedTarget is a fakeTarget that notes when the controller read it.
type clockedTarget struct {
	fakeTarget
	eng *event.Engine
	at  event.Time
}

func (c *clockedTarget) ReadWord(a uint64) uint64 {
	c.at = c.eng.Now()
	return c.fakeTarget.ReadWord(a)
}

// TestJTAGArrivalTime pins one exchange to the timing of the 17-byte
// command the chip's controller decodes ([op:1][addr:8][data:8]): with
// 54 bytes of framing, the request serializes in 568 ns on the host's
// Gigabit port and the reply in 5.68 us on the node's 100 Mbit port,
// and each crossing of the switch adds 10 us.
func TestJTAGArrivalTime(t *testing.T) {
	eng := event.New()
	defer eng.Shutdown()
	nw := NewNetwork(eng)
	host := nw.Attach(HostAddr, HostEthernetBps)
	tgt := &clockedTarget{fakeTarget: fakeTarget{mem: map[uint64]uint64{8: 222}}, eng: eng}
	(&JTAGController{Port: nw.Attach(NodeJTAGAddr(0), NodeEthernetBps), Target: tgt}).Start()
	var reply Packet
	var back event.Time
	eng.Spawn("host", func(p *event.Proc) {
		host.Send(Packet{Dst: NodeJTAGAddr(0), Port: PortJTAG, JTAG: JTAGCmd{OpReadWord, 8, 0}})
		reply, back = host.Recv(p), p.Now()
	})
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if want := 10568 * event.Nanosecond; tgt.at != want {
		t.Errorf("request served at %v, want %v", tgt.at, want)
	}
	if want := 26248 * event.Nanosecond; back != want {
		t.Errorf("reply back at %v, want %v", back, want)
	}
	if reply.JTAG.Data != 222 {
		t.Errorf("reply %+v", reply.JTAG)
	}
}

// TestRequestReplyAllocFree: a steady-state request/reply — the
// qdaemon's exchange pattern, a host process sending a JTAG-sized
// request and waiting on RecvTimeout, a continuation-tier receiver
// answering — allocates nothing, with and without a fault hook judging
// every packet. Each hop rides the event queue as a slab slot, the
// hook reads the packet in place, and the receive queue and the timed
// wait keep their storage. A command is a value, so building one
// allocates nothing either.
func TestRequestReplyAllocFree(t *testing.T) {
	for _, hooked := range []bool{false, true} {
		eng := event.New()
		nw := NewNetwork(eng)
		judged := 0
		if hooked {
			nw.Fault = func(pkt *Packet) FaultVerdict {
				if pkt.Port == PortJTAG {
					judged++
				}
				return FaultNone
			}
		}
		host := nw.Attach(HostAddr, HostEthernetBps)
		jp := nw.Attach(NodeJTAGAddr(0), NodeEthernetBps)
		req := Packet{Dst: NodeJTAGAddr(0), Port: PortJTAG, JTAG: JTAGCmd{OpReadWord, 8, 0}}
		rep := Packet{Dst: HostAddr, Port: PortJTAG, JTAG: JTAGCmd{OpReadWord, 8, 222}}
		jp.OnPacket(func(Packet) { _ = jp.Send(rep) })
		replies := 0
		eng.SpawnDaemon("host", func(p *event.Proc) {
			for {
				if err := host.Send(req); err != nil {
					t.Error(err)
					return
				}
				if got, ok := host.RecvTimeout(p, event.Millisecond); ok && got.JTAG == rep.JTAG {
					replies++
				}
				p.Sleep(50 * event.Microsecond)
			}
		})
		// Each step is one exchange plus the pause: the request, the
		// reply and the wake all land inside it.
		step := func() {
			if err := eng.Run(eng.Now() + 100*event.Microsecond); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 50; i++ { // grow the slab, the rings and the event queue
			step()
		}
		if avg := testing.AllocsPerRun(200, step); avg != 0 {
			t.Errorf("hooked=%v: a request/reply allocates %.2f objects, want 0", hooked, avg)
		}
		if replies < 250 || hooked && judged < 2*replies {
			t.Errorf("hooked=%v: %d replies, %d judged", hooked, replies, judged)
		}
		eng.Shutdown()
	}
}
