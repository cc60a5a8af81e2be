// Package scu implements the QCDOC Serial Communications Unit (§2.2): the
// custom ASIC block that drives the six-dimensional nearest-neighbour
// network. Each SCU manages 24 independent uni-directional connections
// (concurrent sends and receives to 12 neighbours), with:
//
//   - DMA engines with block-strided access to local memory, giving
//     zero-copy memory-to-memory transfers (~600 ns nearest neighbour);
//   - the "three in the air" acknowledgement window that amortizes the
//     round-trip handshake and sustains full link bandwidth;
//   - automatic hardware resend on parity or header errors (Nak/rewind);
//   - idle receive: data arriving before a receive is programmed is held
//     (up to three words) in SCU registers without acknowledgement,
//     blocking the sender until a destination is supplied — so sends and
//     receives need no temporal ordering;
//   - supervisor packets: single words delivered to a neighbour's SCU
//     register, raising a CPU interrupt there;
//   - partition interrupt packets, flood-forwarded with per-link
//     de-duplication and sampled on the slow global clock;
//   - a global-operation mode where incoming words pass through to any
//     set of outgoing links while being stored locally, in two disjoint
//     ("doubled") streams — the substrate for fast global sums and
//     broadcasts;
//   - per-link-end checksums compared at the end of a calculation.
package scu

import (
	"errors"
	"fmt"
	"unsafe"

	"qcdoc/internal/event"
	"qcdoc/internal/geom"
	"qcdoc/internal/hssl"
	"qcdoc/internal/scupkt"
	"qcdoc/internal/telemetry"
)

// Memory is the SCU's view of the node's local memory: 64-bit words at
// byte addresses. The DMA engines read and write it directly (the paper's
// zero-copy property — data is never staged through an intermediate
// buffer).
type Memory interface {
	ReadWord(addr uint64) uint64
	WriteWord(addr uint64, w uint64)
	ReadWords(addr uint64, dst []uint64)
	WriteWords(addr uint64, src []uint64)
}

// The SCU's start-up pipelines, in link clock cycles. Together with 72
// bits of serialization and the wire flight time they calibrate the
// paper's ~600 ns nearest-neighbour memory-to-memory latency (§2.2).
const (
	// txStartupCycles is charged once per send transfer: DMA programming
	// plus the pipeline from local memory through the SCU to the first
	// bit on the wire (250 ns at 500 MHz).
	txStartupCycles = 125
	// rxStartupCycles is the receive-side pipeline from last bit on the
	// wire to the word landing in local memory (200 ns at 500 MHz).
	rxStartupCycles = 100
)

// The link protocol's fixed hardware parameters (§2.2).
const (
	// window is the number of unacknowledged data words allowed in
	// flight: the paper's "three in the air". It stays below
	// scupkt.SeqMod, which sizes the resend and idle-receive register
	// files.
	window = scupkt.WindowSize
	// ackTimeout triggers a resend of the oldest unacknowledged word,
	// recovering from corrupted acknowledgement frames. It is much
	// larger than the round trip so it never fires spuriously.
	ackTimeout = 50 * event.Microsecond
	// retrainAfter is the number of consecutive acknowledgement timeouts
	// (with no ack progress in between) after which the SCU resets and
	// re-trains the outbound wire instead of resending again — the
	// recovery for a link whose sampling phase has drifted or that is
	// suffering a burst error.
	retrainAfter = 4
	// maxRetrains is the number of consecutive re-trainings (with no ack
	// progress in between) after which the SCU gives up, declares the
	// link dead, and escalates via the supervisor interrupt path.
	maxRetrains = 3
)

// Stats aggregates per-link protocol counters.
type Stats struct {
	WordsSent     uint64 // first transmissions of data words
	WordsReceived uint64 // in-order accepted data words
	AcksSent      uint64
	NaksSent      uint64
	Resends       uint64 // retransmitted data words (rewind + timeout)
	ParityErrors  uint64
	HeaderErrors  uint64
	Duplicates    uint64 // discarded duplicate data words
	SupsSent      uint64
	SupsReceived  uint64
	PartIRQsSent  uint64
	PartIRQsRecvd uint64
	Retrains      uint64 // link re-trainings forced by ack-timeout streaks
	LinkFailures  uint64 // links declared dead after maxRetrains gave up
}

// statsFields is the single definition of the protocol counter set:
// telemetry name and field offset (a Stats it reaches into stays on the
// stack), in a stable order. Aggregation, registry export and the
// telemetry peek window all walk it, so adding a counter here is the
// whole job. Read-only: every machine shares it.
var statsFields = []struct {
	name string
	off  uintptr
}{
	{"words_sent", unsafe.Offsetof(Stats{}.WordsSent)},
	{"words_received", unsafe.Offsetof(Stats{}.WordsReceived)},
	{"acks_sent", unsafe.Offsetof(Stats{}.AcksSent)},
	{"naks_sent", unsafe.Offsetof(Stats{}.NaksSent)},
	{"resends", unsafe.Offsetof(Stats{}.Resends)},
	{"parity_errors", unsafe.Offsetof(Stats{}.ParityErrors)},
	{"header_errors", unsafe.Offsetof(Stats{}.HeaderErrors)},
	{"duplicates", unsafe.Offsetof(Stats{}.Duplicates)},
	{"sups_sent", unsafe.Offsetof(Stats{}.SupsSent)},
	{"sups_received", unsafe.Offsetof(Stats{}.SupsReceived)},
	{"partirqs_sent", unsafe.Offsetof(Stats{}.PartIRQsSent)},
	{"partirqs_recvd", unsafe.Offsetof(Stats{}.PartIRQsRecvd)},
	{"retrains", unsafe.Offsetof(Stats{}.Retrains)},
	{"link_failures", unsafe.Offsetof(Stats{}.LinkFailures)},
}

// field returns counter i of s in table order.
func (s *Stats) field(i int) *uint64 {
	return (*uint64)(unsafe.Add(unsafe.Pointer(s), statsFields[i].off))
}

// NumStats is the number of counters in Stats, in table order.
func NumStats() int { return len(statsFields) }

// Add accumulates o into s, field by field from the shared table.
func (s *Stats) Add(o *Stats) {
	for i := range statsFields {
		*s.field(i) += *o.field(i)
	}
}

// Each calls emit for every counter in table order.
func (s *Stats) Each(emit func(name string, v uint64)) {
	for i, f := range statsFields {
		emit(f.name, *s.field(i))
	}
}

// Value returns counter i in table order (the indexed view the telemetry
// peek window serves word by word).
func (s *Stats) Value(i int) uint64 { return *s.field(i) }

// SetValue stores counter i in table order (for reassembling a Stats
// from peeked words on the host side).
func (s *Stats) SetValue(i int, v uint64) { *s.field(i) = v }

// SCU is one node's serial communications unit.
type SCU struct {
	eng  *event.Engine
	name fmt.Stringer // formatted only into errors
	mem  Memory

	clock     event.Hz   // the link clock, the processor's (§2.2)
	rxStartup event.Time // rxStartupCycles at clock, for storeWord

	links [geom.NumLinks]*linkUnit // &units[i] once attached
	units [geom.NumLinks]linkUnit

	onSupervisor  func(l geom.Link, word uint64)
	onLinkFailure func(l geom.Link)
	lastSup       [geom.NumLinks]uint64
	failedLinks   uint64 // bitmask by link index; see raiseLinkFailure

	// WindowArm, when set by the machine, is called whenever a new
	// partition-interrupt bit becomes pending on this node, so the
	// machine can schedule the next global-clock sampling window.
	WindowArm func()

	part partState
	// globals[id] is &streams[id] while stream id is configured, nil
	// otherwise.
	streams [2]globalStream
	globals [2]*globalStream
	// globalIn maps a link index to the stream consuming its inbound
	// data words, or -1.
	globalIn [geom.NumLinks]int8

	started bool
	posts   uint64      // transfers posted; see touches
	free    *transfer   // completed transfer records; see transfer
	ff      *ffEngine   // shared with the SCUs its links pair with; see ff.go
	recs    [2]transfer // the free list's first: a send and a receive take no heap object
}

// Init makes a zero SCU (a node holds its SCU by value) the SCU of a
// node whose links run at clock (the processor clock; the paper's target
// is 500 MHz), named in its errors by name. mem is the node's local
// memory as seen by the DMA engines.
func (s *SCU) Init(eng *event.Engine, name fmt.Stringer, mem Memory, clock event.Hz) {
	s.eng, s.name, s.mem, s.clock = eng, name, mem, clock
	s.rxStartup = clock.Cycles(rxStartupCycles)
	for i := range s.globalIn {
		s.globalIn[i] = -1
	}
	for id := range s.streams {
		s.streams[id] = globalStream{scu: s, id: id, done: *event.NewGate(eng)}
	}
	s.part.init(s)
	s.recs[0].next, s.free = &s.recs[1], &s.recs[0]
}

// Errors returned by SCU operations.
var (
	ErrLinkNotAttached = errors.New("scu: link not attached")
	ErrNotStarted      = errors.New("scu: not started")
	ErrBadDescriptor   = errors.New("scu: invalid DMA descriptor")
	ErrBadStream       = errors.New("scu: invalid global stream configuration")
)

// AttachLink wires one of the twelve nearest-neighbour connections:
// out carries this node's transmissions toward the (dim, dir) neighbour
// and in carries that neighbour's transmissions back. Must be called
// before Start.
func (s *SCU) AttachLink(l geom.Link, out, in *hssl.Wire) {
	if s.started {
		panic("scu: AttachLink after Start")
	}
	i := geom.LinkIndex(l)
	s.units[i] = linkUnit{scu: s, link: l, out: out, in: in}
	s.links[i] = &s.units[i]
}

// Attached reports whether the link has been wired.
func (s *SCU) Attached(l geom.Link) bool { return s.links[geom.LinkIndex(l)] != nil }

// Start brings up the per-link transmit and receive engines on the event
// engine's continuation tier. The wires must already be trained.
func (s *SCU) Start() {
	if s.started {
		return
	}
	s.started = true
	for _, lu := range s.links {
		if lu != nil {
			lu.start()
		}
	}
}

func (s *SCU) linkUnit(l geom.Link) (*linkUnit, error) {
	lu := s.links[geom.LinkIndex(l)]
	if lu == nil {
		return nil, fmt.Errorf("%w: %s %v", ErrLinkNotAttached, s.name, l)
	}
	if !s.started {
		return nil, fmt.Errorf("%w: %s", ErrNotStarted, s.name)
	}
	return lu, nil
}

// StartSend programs a DMA send on link l: the descriptor's words are
// fetched from local memory and transmitted. The returned transfer
// completes when every word has been acknowledged by the neighbour.
// There is no need for the neighbour to have programmed its receive
// first (idle receive holds early words).
func (s *SCU) StartSend(l geom.Link, d DMADesc) (Transfer, error) { return s.post(l, d, true) }

// StartRecv programs a DMA receive on link l: incoming data words are
// stored at the descriptor's addresses. Completes when all words have
// landed in local memory.
func (s *SCU) StartRecv(l geom.Link, d DMADesc) (Transfer, error) { return s.post(l, d, false) }

// post programs a transfer in a record off the free list, every
// per-transfer field reset; a dry list takes a block of eight records,
// one object (a halo exchange keeps a dozen or so live per node).
// NewGate inlines: no second object.
func (s *SCU) post(l geom.Link, d DMADesc, send bool) (Transfer, error) {
	lu, err := s.linkUnit(l)
	if err == nil {
		err = d.validate()
	}
	if err != nil {
		return Transfer{}, err
	}
	if s.free == nil {
		blk := new([8]transfer)
		for i := range blk {
			blk[i].next, s.free = s.free, &blk[i]
		}
	}
	t := s.free
	s.free = t.next
	*t = transfer{link: l, desc: d, send: send, total: d.TotalWords(), done: *event.NewGate(s.eng), gen: t.gen + 1, scu: s}
	s.posts++
	if send {
		lu.queueSend(t)
	} else {
		lu.programRecv(t)
	}
	return Transfer{t, t.gen}, nil
}

// SendSupervisor sends a single 64-bit supervisor word to the (dim, dir)
// neighbour, where it raises a CPU interrupt. Supervisor packets take
// priority over queued data and are individually acknowledged
// (stop-and-wait); under link errors delivery is at-least-once.
func (s *SCU) SendSupervisor(l geom.Link, word uint64) error {
	lu, err := s.linkUnit(l)
	if err != nil {
		return err
	}
	lu.sendSupervisor(word)
	return nil
}

// OnSupervisor registers the CPU interrupt handler for incoming
// supervisor words. The handler runs in the receiving link's context at
// the simulated arrival time.
func (s *SCU) OnSupervisor(fn func(l geom.Link, word uint64)) { s.onSupervisor = fn }

// SupLinkFailed is the supervisor word delivered with the link-failure
// escalation: when a link gives up after maxRetrains, the SCU raises
// the same CPU interrupt a neighbour's supervisor packet would, with
// this distinguished word ("LNKDEAD" in ASCII), so supervisor-level
// software learns about dead links through its existing interrupt path.
const SupLinkFailed uint64 = 0x004C4E4B44454144

// OnLinkFailure registers a callback invoked (before the supervisor
// escalation interrupt) when a link is declared permanently dead.
func (s *SCU) OnLinkFailure(fn func(l geom.Link)) { s.onLinkFailure = fn }

// raiseLinkFailure records a dead link and escalates: first the
// dedicated failure callback, then the supervisor interrupt path with
// the SupLinkFailed word in the link's supervisor register.
func (s *SCU) raiseLinkFailure(l geom.Link) {
	s.failedLinks |= 1 << uint(geom.LinkIndex(l))
	s.lastSup[geom.LinkIndex(l)] = SupLinkFailed
	if s.onLinkFailure != nil {
		s.onLinkFailure(l)
	}
	if s.onSupervisor != nil {
		s.onSupervisor(l, SupLinkFailed)
	}
}

// FailedLinks returns the bitmask of links declared permanently dead
// (bit i set = link index i failed). The node's telemetry window
// exposes this word, so the host-side watchdog sees link deaths without
// any cooperation from the node's software.
func (s *SCU) FailedLinks() uint64 { return s.failedLinks }

// LinkDead reports whether link l has been declared permanently dead.
func (s *SCU) LinkDead(l geom.Link) bool {
	return s.failedLinks&(1<<uint(geom.LinkIndex(l))) != 0
}

// LastSupervisor returns the most recent supervisor word received on l
// (the SCU register the packet lands in).
func (s *SCU) LastSupervisor(l geom.Link) uint64 { return s.lastSup[geom.LinkIndex(l)] }

// Stats returns protocol counters summed over all links via the shared
// field table — the per-link counters are the single source of truth;
// this aggregate (like the machine-level one) is derived on demand. An
// unattached link's unit is zero, so it reads as all zero here and below.
func (s *SCU) Stats() Stats {
	var total Stats
	for i := range s.units {
		total.Add(&s.units[i].stats)
	}
	return total
}

// LinkStats returns the counters of a single link.
func (s *SCU) LinkStats(l geom.Link) Stats { return s.units[geom.LinkIndex(l)].stats }

// LinkHists holds one link's latency distributions: how long each data
// word stayed unacknowledged (first transmission to the cumulative ack
// that retired it) and the gap between successive transmissions of a
// resent word. Nil-gated like the node counter block: recording costs
// one pointer test when disabled.
type LinkHists struct {
	InFlight  telemetry.Histogram
	ResendGap telemetry.Histogram
}

// EnableLinkHists switches on per-link latency histograms for every
// attached link. Idempotent; enabling mid-run starts the distributions
// from empty.
func (s *SCU) EnableLinkHists() {
	for _, lu := range s.links {
		if lu != nil && lu.hist == nil {
			lu.hist = &LinkHists{}
		}
	}
}

// LinkHists returns link l's histogram block, or nil when disabled or
// the link is unattached.
func (s *SCU) LinkHists(l geom.Link) *LinkHists { return s.units[geom.LinkIndex(l)].hist }

// Checksums returns the transmit-side and receive-side end-of-link
// checksums for link l: the transmit sum covers words sent toward the
// (dim,dir) neighbour, the receive sum covers words accepted from it.
// Comparing the transmit sum with the neighbour's opposite-link receive
// sum confirms no erroneous data was exchanged (§2.2).
func (s *SCU) Checksums(l geom.Link) (tx, rx scupkt.Checksum) {
	lu := &s.units[geom.LinkIndex(l)]
	return lu.txSum, lu.rxSum
}

// Engine returns the event engine the SCU runs on.
func (s *SCU) Engine() *event.Engine { return s.eng }
