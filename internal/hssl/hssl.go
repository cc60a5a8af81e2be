// Package hssl models the IBM High Speed Serial Link controllers that
// carry the QCDOC mesh network (§2.2): bit-serial, uni-directional wires
// running at the processor clock (target 500 MHz), with a power-on
// training sequence that establishes sampling times and byte boundaries,
// idle bytes when no data flows, and — for the fault-injection
// experiments — a hook that corrupts frames in flight.
//
// The motherboard provides a matched-impedance path with no redrive, so
// propagation is a small fixed time-of-flight; dense packaging keeps it
// to a few nanoseconds even through metres of cable (§1, §2.4).
//
// Frames are fixed-size values (scupkt.Wire) carried by value from the
// transmitter through the in-flight ring to the receiver: the hardware
// has no allocator, and neither does the steady-state path here. See
// DESIGN.md §9 for the frame memory model.
package hssl

import (
	"errors"
	"fmt"

	"qcdoc/internal/event"
	"qcdoc/internal/scupkt"
)

// DefaultClock is the paper's target link speed: the links run at the
// same clock as the processor.
const DefaultClock = 500 * event.MHz

// DefaultPropagation is the modelled time-of-flight between neighbouring
// ASICs through motherboard traces and external cables. Dense packaging
// keeps this small; 5 ns corresponds to about a metre of trace+cable.
const DefaultPropagation = 5 * event.Nanosecond

// TrainingBytes is the length of the known byte sequence the HSSL
// controllers exchange after reset to lock sampling phase and byte
// framing.
const TrainingBytes = 64

// Frame is one serialized packet in flight on a wire: the frame bytes
// as a value (the embedded scupkt.Wire) plus a monotone per-wire frame
// number used by fault injectors. Frames are copied, never shared — a
// receiver may keep its Frame as long as it likes without pinning any
// wire state.
type Frame struct {
	scupkt.Wire
	Seq uint64
}

// FaultFunc may corrupt a frame in flight by mutating it in place,
// reporting whether it changed anything. A nil FaultFunc means a clean
// wire. The non-faulting path must be free: a hook that leaves the
// frame alone just returns false, with no copy.
type FaultFunc func(f *Frame) bool

// Stats counts wire activity.
type Stats struct {
	Frames    uint64
	Bits      uint64
	Corrupted uint64 // frames altered by the fault injector
	Dropped   uint64 // frames launched into a dead wire, never delivered
}

// Wire is one uni-directional bit-serial link between two neighbouring
// nodes. Frames are serialized at the link clock (one bit per cycle),
// then arrive at the far end after the propagation delay. Serialization
// is strictly FIFO: a frame cannot start until the previous one has left
// the transmitter.
type Wire struct {
	eng     *event.Engine // transmitter's engine: Send, training, fault state
	rxEng   *event.Engine // receiver's engine: delivery, OnFrame
	name    string
	bit     event.Time // one bit on the wire: the link clock's cycle
	prop    event.Time
	handler func(Frame) // the receiver; see OnFrame
	trained bool

	busyUntil event.Time
	seq       uint64
	fault     FaultFunc
	stats     Stats
	dead      bool  // permanent hardware failure; see Kill
	xmit      Frame // transmit slot: the frame being launched, for the fault hook

	// In-flight frames, a reusable ring: Send (or, on a cross-shard wire,
	// AcceptPayload at the barrier) pushes at the tail, each arrival
	// event pops the head. Arrival order equals send order (the wire is
	// point-to-point and serialization is FIFO), so the ring replaces a
	// per-frame delivery closure without changing anything observable. It
	// grows to the wire's high-water mark once and is then
	// allocation-free.
	fly     []Frame
	flyHead int
	flyLen  int

	early []Frame // frames that arrived before a receiver took them (cold)
}

// NewWire creates a wire on the engine. clock is the serial bit rate;
// prop the time-of-flight to the receiver.
func NewWire(eng *event.Engine, name string, clock event.Hz, prop event.Time) *Wire {
	return NewWireBetween(eng, eng, name, clock, prop)
}

// NewWireBetween creates a wire whose transmitter and receiver live on
// different shard engines of one cluster. The transmit half (Send,
// training, the fault hook) runs on tx; deliveries and the OnFrame
// handler run on rx. When the two engines differ, frames cross the shard
// boundary by value through the cluster's mailboxes, timed at their
// modelled arrival — which the conservative lookahead (MinLatency)
// guarantees is always at least one window away.
func NewWireBetween(tx, rx *event.Engine, name string, clock event.Hz, prop event.Time) *Wire {
	return &Wire{eng: tx, rxEng: rx, name: name, bit: clock.Cycle(), prop: prop}
}

// MinTransmittedFrameBytes is the smallest frame the SCU ever puts on a
// wire: the 2-byte acknowledgement / partition-interrupt frame. (The
// 1-byte Idle frame exists in the wire format but trained controllers
// exchange idles implicitly; the simulator never transmits one — and
// the cross-shard path asserts it, see event.Engine.CrossPayload.)
const MinTransmittedFrameBytes = scupkt.AckFrame

// MinLatency returns the guaranteed minimum time between an HSSL send
// and its visibility at the receiver: the serialization time of the
// smallest transmitted frame plus the time of flight. This is the
// conservative lookahead of the sharded cluster (hep-lat/0210034
// quantifies both terms; DESIGN.md §13 derives the bound).
func MinLatency(clock event.Hz, prop event.Time) event.Time {
	return clock.Cycles(int64(MinTransmittedFrameBytes)*8) + prop
}

// SetFault installs (or clears, with nil) the fault injector.
func (w *Wire) SetFault(f FaultFunc) { w.fault = f }

// Stats returns a copy of the wire's counters.
func (w *Wire) Stats() Stats { return w.stats }

// Name returns the wire's name.
func (w *Wire) Name() string { return w.name }

// ErrNotTrained is returned when data is sent before link training.
var ErrNotTrained = errors.New("hssl: link not trained")

// TrainTime is the duration of the power-on training handshake: the
// serialization time of the training pattern plus one propagation delay.
func (w *Wire) TrainTime() event.Time {
	return TrainingBytes*8*w.bit + w.prop
}

// TrainAsync performs the power-on training handshake: the transmitter
// sends the known TrainingBytes sequence so the receiver can lock its
// sampling phase and byte boundaries. The wire becomes trained after
// TrainTime, then done (if non-nil) runs. The machine layer chains these
// to train a node's links serially without a trainer process.
func (w *Wire) TrainAsync(done func()) {
	w.eng.After(w.TrainTime(), func() {
		w.trained = true
		if done != nil {
			done()
		}
	})
}

// Trained reports whether the wire has completed training.
func (w *Wire) Trained() bool { return w.trained }

// Reset drops training (e.g. on machine reset); in-flight frames are
// still delivered, matching a real wire where bits already launched
// arrive regardless.
func (w *Wire) Reset() { w.trained = false }

// Kill permanently severs the wire: a failed driver, a broken trace.
// The transmitter cannot tell — it keeps serializing, and Send keeps
// accounting serialization time — but nothing ever reaches the far end
// again. Retraining "succeeds" from the transmit side (the training
// pattern leaves the pins) yet restores nothing, which is exactly what
// forces the SCU's give-up escalation: retrains that never produce an
// acknowledgement.
func (w *Wire) Kill() { w.dead = true }

// SerializeTime returns how long the given frame occupies the transmitter.
func (w *Wire) SerializeTime(nBytes int) event.Time {
	return event.Time(nBytes) * 8 * w.bit
}

// Send launches a frame onto the wire. It returns the time at which the
// frame will have fully arrived at the receiver. Send never blocks the
// caller: the SCU hardware queues into the serializer; flow control
// happens one layer up via the ack window. An untrained wire rejects
// traffic.
//
// The frame travels by value: Send copies the bits into the in-flight
// ring, so the caller's Wire value is dead the moment Send returns, and
// nothing on the steady-state path touches the heap.
func (w *Wire) Send(data scupkt.Wire) (event.Time, error) {
	if !w.trained {
		return 0, fmt.Errorf("%w: %s", ErrNotTrained, w.name)
	}
	start := w.eng.Now()
	if w.busyUntil > start {
		start = w.busyUntil
	}
	ser := w.SerializeTime(data.Len())
	w.busyUntil = start + ser
	arrive := w.busyUntil + w.prop

	w.seq++
	w.stats.Frames++
	w.stats.Bits += uint64(data.Len()) * 8

	// A dead wire swallows the frame: serialization time was spent, the
	// arrival never happens. No event is scheduled, so a machine whose
	// traffic all dies here quiesces instead of spinning.
	if w.dead {
		w.stats.Dropped++
		return arrive, nil
	}

	// A fault injector mutates the wire's transmit slot, not a stack frame
	// whose address would put one Frame on the heap per send; a clean wire
	// never touches the slot. The frame then goes by value into the
	// in-flight ring or, to a receiver on another shard, the cluster
	// mailbox, timed at its modelled arrival.
	f := Frame{Wire: data, Seq: w.seq}
	if w.fault != nil {
		w.xmit = f
		if w.fault(&w.xmit) {
			w.stats.Corrupted++
		}
		f = w.xmit
	}
	if w.rxEng != w.eng {
		w.eng.CrossPayload(w.rxEng, arrive, w, 0, packFrame(f))
	} else {
		w.pushInFlight(f)
		w.eng.AtHandler(arrive, w, 0)
	}
	return arrive, nil
}

// packFrame flattens a frame into a cross-shard payload value: the wire
// sequence number, the byte count and the frame's two words.
func packFrame(f Frame) event.Payload {
	lo, hi := f.Words()
	return event.Payload{f.Seq, uint64(f.Len()), lo, hi}
}

// unpackFrame inverts packFrame on the receiving shard.
func unpackFrame(p event.Payload) Frame {
	return Frame{Wire: scupkt.WireOfWords(p[2], p[3], int(p[1])), Seq: p[0]}
}

// AcceptPayload takes one cross-shard frame off the cluster mailbox at
// the barrier; it implements event.PayloadHandler and is not meant to be
// called directly. On a cross-shard wire the transmitter never touches
// the in-flight ring, so the receive side owns it, and the frame's
// arrival event finds it at the head exactly as on a same-shard wire.
func (w *Wire) AcceptPayload(p event.Payload) { w.pushInFlight(unpackFrame(p)) }

// HandleEvent is a frame's one event: its last bit has reached the
// receiver, and the OnFrame handler takes it there and then. Arrivals
// fire in send order (FIFO serialization), so the frame is the ring's
// head. It implements event.Handler; do not call it directly.
func (w *Wire) HandleEvent(uint64) {
	f := w.popInFlight()
	if w.handler == nil || len(w.early) > 0 {
		w.early = append(w.early, f) // cold: nobody listens yet, or OnFrame's drain is still queued
		return
	}
	w.handler(f)
}

func (w *Wire) pushInFlight(f Frame) {
	if w.flyLen == len(w.fly) {
		w.growInFlight()
	}
	w.fly[(w.flyHead+w.flyLen)&(len(w.fly)-1)] = f
	w.flyLen++
}

func (w *Wire) popInFlight() Frame {
	f := w.fly[w.flyHead]
	w.flyHead = (w.flyHead + 1) & (len(w.fly) - 1)
	w.flyLen--
	return f
}

// growInFlight doubles the ring; its length is zero or a power of two,
// so an index wraps with a mask.
func (w *Wire) growInFlight() {
	grown := make([]Frame, max(4, 2*len(w.fly)))
	for i := 0; i < w.flyLen; i++ {
		grown[i] = w.fly[(w.flyHead+i)&(len(w.fly)-1)]
	}
	w.fly = grown
	w.flyHead = 0
}

// AdoptRing hands the wire a recycled in-flight ring to use as its
// backing array (machine.Pool recycles rings across machine builds so a
// fleet doesn't re-grow every wire's ring from nothing). Frames are
// pure values — a ring carries no references — so a previous machine's
// ring is safe to adopt as-is. No-op once frames are in flight, or on a
// ring whose length is not a power of two (the ring wraps with a mask).
func (w *Wire) AdoptRing(ring []Frame) {
	if n := len(ring); n > 0 && n&(n-1) == 0 && w.flyLen == 0 {
		w.fly = ring
		w.flyHead = 0
	}
}

// ReleaseRing detaches and returns the wire's in-flight ring for
// recycling. The wire must be finished (its engine shut down); it is
// left with no ring and would re-grow from scratch if used again.
func (w *Wire) ReleaseRing() []Frame {
	r := w.fly
	w.fly, w.flyHead, w.flyLen = nil, 0, 0
	return r
}

// OnFrame attaches the wire's receiver: every arriving frame is handed
// to fn at its arrival time, on the receiver's engine. Frames that
// arrived before anyone was listening drain into fn in arrival order, in
// one event at the current time.
func (w *Wire) OnFrame(fn func(Frame)) {
	w.handler = fn
	if len(w.early) == 0 {
		return
	}
	w.rxEng.At(w.rxEng.Now(), func() {
		early := w.early
		w.early = nil
		for _, f := range early {
			fn(f)
		}
	})
}

// FlipBitOnce returns a FaultFunc that flips the given bit of frame
// number seq exactly once — the single-bit-error scenario of §2.2 that
// the parity check must catch and the window protocol must repair.
func FlipBitOnce(seq uint64, bit int) FaultFunc {
	done := false
	return func(f *Frame) bool {
		if done || f.Seq != seq || f.Len() == 0 {
			return false
		}
		done = true
		f.FlipBit(bit)
		return true
	}
}

// FlipBitEvery returns a FaultFunc that corrupts every n-th frame,
// flipping a payload bit derived from the frame number. Used for soak
// tests of the resend path.
func FlipBitEvery(n uint64) FaultFunc {
	if n == 0 {
		n = 1
	}
	return func(f *Frame) bool {
		if f.Seq%n != 0 || f.Len() == 0 {
			return false
		}
		f.FlipBit(int(f.Seq))
		return true
	}
}
