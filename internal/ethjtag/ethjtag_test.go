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

// jtagSeeds are TestJTAGEncodeDecode's inputs: a full command and a
// truncated one.
func jtagSeeds() []string {
	b := EncodeJTAG(OpReadWord, 0x1234, 0xBEEF)
	return []string{b, b[:10]}
}

func TestJTAGEncodeDecode(t *testing.T) {
	seeds := jtagSeeds()
	op, addr, data, err := DecodeJTAG(seeds[0])
	if err != nil || op != OpReadWord || addr != 0x1234 || data != 0xBEEF {
		t.Fatalf("round trip: %v %v %v %v", op, addr, data, err)
	}
	if _, _, _, err := DecodeJTAG(seeds[1]); err == nil {
		t.Fatal("short command accepted")
	}
}

// FuzzJTAGDecode feeds DecodeJTAG arbitrary payloads, as a JTAG port
// receives them off the wire: it must never panic, a short payload
// must be an error, and a decoded command must re-encode to exactly
// the bytes it consumed.
func FuzzJTAGDecode(f *testing.F) {
	for _, b := range jtagSeeds() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b string) {
		op, addr, data, err := DecodeJTAG(b)
		if len(b) < jtagCmdLen {
			if err == nil {
				t.Fatalf("%d-byte command accepted", len(b))
			}
			return
		}
		if err != nil {
			t.Fatalf("%d-byte command: %v", len(b), err)
		}
		if re := EncodeJTAG(op, addr, data); re != b[:jtagCmdLen] {
			t.Fatalf("re-encoded %x, consumed %x", re, b[:jtagCmdLen])
		}
	})
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
			host.Send(Packet{Dst: NodeJTAGAddr(0), Port: PortJTAG, Payload: EncodeJTAG(op, addr, data)})
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
		// Non-JTAG packets to the JTAG port are ignored (it answers only
		// JTAG UDP).
		host.Send(Packet{Dst: NodeJTAGAddr(0), Port: PortRPC, Payload: "ping"})
	})
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(replies) != 4 {
		t.Fatalf("%d replies", len(replies))
	}
	if _, _, code, _ := DecodeJTAG(replies[0].Payload); code != 1 {
		t.Fatal("premature boot not refused")
	}
	if _, _, code, _ := DecodeJTAG(replies[1].Payload); code != 0 {
		t.Fatal("boot failed after load")
	}
	if _, addr, data, _ := DecodeJTAG(replies[2].Payload); addr != 8 || data != 222 {
		t.Fatalf("peek = %v @ %v", data, addr)
	}
	if _, _, state, _ := DecodeJTAG(replies[3].Payload); state != 1 {
		t.Fatal("status wrong")
	}
	if !tgt.started || tgt.boot != 3 {
		t.Fatalf("target state: %+v", tgt)
	}
}

// TestRequestReplyAllocFree: a steady-state request/reply — the
// qdaemon's exchange pattern, a host process sending a JTAG-sized
// request and waiting on RecvTimeout, a continuation-tier receiver
// answering — allocates nothing, with and without a fault hook judging
// every packet. Each hop rides the event queue as a slab slot, the
// hook reads the packet in place, and the receive queue and the timed
// wait keep their storage. The payloads are built once: encoding a
// command (EncodeJTAG) is the caller's allocation, not the network's.
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
		req := Packet{Dst: NodeJTAGAddr(0), Port: PortJTAG, Payload: EncodeJTAG(OpReadWord, 8, 0)}
		rep := Packet{Dst: HostAddr, Port: PortJTAG, Payload: EncodeJTAG(OpReadWord, 8, 222)}
		jp.OnPacket(func(Packet) { _ = jp.Send(rep) })
		replies := 0
		eng.SpawnDaemon("host", func(p *event.Proc) {
			for {
				if err := host.Send(req); err != nil {
					t.Error(err)
					return
				}
				if got, ok := host.RecvTimeout(p, event.Millisecond); ok && got.Payload == rep.Payload {
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
