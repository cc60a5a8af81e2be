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
}

// Config holds the SCU timing and protocol parameters.
type Config struct {
	// Clock is the link/processor clock (the HSSL links run at the same
	// clock as the processor; target 500 MHz).
	Clock event.Hz
	// TxStartupCycles is charged once per send transfer: DMA programming
	// plus the pipeline from local memory through the SCU to the first
	// bit on the wire. Default 125 cycles (250 ns at 500 MHz).
	TxStartupCycles int64
	// RxStartupCycles is the receive-side pipeline from last bit on the
	// wire to the word landing in local memory. Default 100 cycles
	// (200 ns at 500 MHz). Together with 72 bits of serialization and the
	// wire flight time this calibrates the paper's ~600 ns nearest-
	// neighbour memory-to-memory latency.
	RxStartupCycles int64
	// Window is the number of unacknowledged data words allowed in
	// flight. Default (and hardware value) 3; must be < scupkt.SeqMod.
	Window int
	// AckTimeout triggers a resend of the oldest unacknowledged word,
	// recovering from corrupted acknowledgement frames. It must be much
	// larger than the round trip so it never fires spuriously. Default
	// 50 us.
	AckTimeout event.Time
	// RetrainAfter is the number of consecutive acknowledgement timeouts
	// (with no ack progress in between) after which the SCU resets and
	// re-trains the outbound wire instead of resending again — the
	// recovery for a link whose sampling phase has drifted or that is
	// suffering a burst error. Default 4; negative disables retraining.
	RetrainAfter int
	// MaxRetrains is the number of consecutive re-trainings (with no ack
	// progress in between) after which the SCU gives up, declares the
	// link dead, and escalates via the supervisor interrupt path.
	// Default 3; negative disables the give-up.
	MaxRetrains int
}

// DefaultConfig returns the paper's nominal 500 MHz configuration.
func DefaultConfig() Config {
	return Config{
		Clock:           500 * event.MHz,
		TxStartupCycles: 125,
		RxStartupCycles: 100,
		Window:          scupkt.WindowSize,
		AckTimeout:      50 * event.Microsecond,
		RetrainAfter:    4,
		MaxRetrains:     3,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Clock == 0 {
		c.Clock = d.Clock
	}
	if c.TxStartupCycles == 0 {
		c.TxStartupCycles = d.TxStartupCycles
	}
	if c.RxStartupCycles == 0 {
		c.RxStartupCycles = d.RxStartupCycles
	}
	if c.Window == 0 {
		c.Window = d.Window
	}
	if c.AckTimeout == 0 {
		c.AckTimeout = d.AckTimeout
	}
	if c.RetrainAfter == 0 {
		c.RetrainAfter = d.RetrainAfter
	}
	if c.MaxRetrains == 0 {
		c.MaxRetrains = d.MaxRetrains
	}
	if c.Window >= scupkt.SeqMod {
		// The window protocol cannot distinguish a full window from an
		// empty one once Window reaches the sequence modulus, and the
		// link unit's resend/idle-receive register files are sized SeqMod.
		panic(fmt.Sprintf("scu: Window %d must be < scupkt.SeqMod (%d)", c.Window, scupkt.SeqMod))
	}
	return c
}

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
	LinkFailures  uint64 // links declared dead after MaxRetrains gave up
}

// statsFields is the single definition of the protocol counter set:
// telemetry name plus field accessor, in a stable order. Stats.Add,
// Stats.Each, the indexed Value/SetValue accessors and the node's
// telemetry peek window all walk this table, so adding a counter here is
// the whole job — aggregation, registry export and the host-side fetch
// path pick it up at once. Write-once at declaration, read-only after:
// every machine in a fleet walks the same table.
var statsFields = []struct {
	name string
	get  func(*Stats) *uint64
}{
	{"words_sent", func(s *Stats) *uint64 { return &s.WordsSent }},
	{"words_received", func(s *Stats) *uint64 { return &s.WordsReceived }},
	{"acks_sent", func(s *Stats) *uint64 { return &s.AcksSent }},
	{"naks_sent", func(s *Stats) *uint64 { return &s.NaksSent }},
	{"resends", func(s *Stats) *uint64 { return &s.Resends }},
	{"parity_errors", func(s *Stats) *uint64 { return &s.ParityErrors }},
	{"header_errors", func(s *Stats) *uint64 { return &s.HeaderErrors }},
	{"duplicates", func(s *Stats) *uint64 { return &s.Duplicates }},
	{"sups_sent", func(s *Stats) *uint64 { return &s.SupsSent }},
	{"sups_received", func(s *Stats) *uint64 { return &s.SupsReceived }},
	{"partirqs_sent", func(s *Stats) *uint64 { return &s.PartIRQsSent }},
	{"partirqs_recvd", func(s *Stats) *uint64 { return &s.PartIRQsRecvd }},
	{"retrains", func(s *Stats) *uint64 { return &s.Retrains }},
	{"link_failures", func(s *Stats) *uint64 { return &s.LinkFailures }},
}

// NumStats is the number of counters in Stats, in table order.
func NumStats() int { return len(statsFields) }

// StatsNames returns the counter names in table order.
func StatsNames() []string {
	names := make([]string, len(statsFields))
	for i, f := range statsFields {
		names[i] = f.name
	}
	return names
}

// Add accumulates o into s, field by field from the shared table.
func (s *Stats) Add(o *Stats) {
	for _, f := range statsFields {
		*f.get(s) += *f.get(o)
	}
}

// Each calls emit for every counter in table order.
func (s *Stats) Each(emit func(name string, v uint64)) {
	for _, f := range statsFields {
		emit(f.name, *f.get(s))
	}
}

// Value returns counter i in table order (the indexed view the telemetry
// peek window serves word by word).
func (s *Stats) Value(i int) uint64 { return *statsFields[i].get(s) }

// SetValue stores counter i in table order (for reassembling a Stats
// from peeked words on the host side).
func (s *Stats) SetValue(i int, v uint64) { *statsFields[i].get(s) = v }

// SCU is one node's serial communications unit.
type SCU struct {
	eng  *event.Engine
	name string
	mem  Memory
	cfg  Config

	rxStartup event.Time // cfg.RxStartupCycles at cfg.Clock, for storeWord

	links [geom.NumLinks]*linkUnit

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
	globalIn [geom.NumLinks]int

	started bool
}

// New creates an SCU for a node. mem is the node's local memory as seen
// by the DMA engines.
func New(eng *event.Engine, name string, mem Memory, cfg Config) *SCU {
	s := &SCU{eng: eng, name: name, mem: mem, cfg: cfg.withDefaults()}
	s.rxStartup = s.cfg.Clock.Cycles(s.cfg.RxStartupCycles)
	for i := range s.globalIn {
		s.globalIn[i] = -1
	}
	for id := range s.streams {
		s.streams[id] = globalStream{scu: s, id: id, done: *event.NewGate(eng)}
	}
	s.part.init(s)
	return s
}

// Name returns the SCU's name (usually the node's coordinate).
func (s *SCU) Name() string { return s.name }

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
	s.links[geom.LinkIndex(l)] = newLinkUnit(s, l, out, in)
}

// Attached reports whether the link has been wired.
func (s *SCU) Attached(l geom.Link) bool { return s.links[geom.LinkIndex(l)] != nil }

// Start brings up the per-link hardware engines (transmit and receive
// state machines) on the event engine's continuation tier — no
// goroutines; a link costs only its state struct. The wires must already
// be trained.
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
func (s *SCU) StartSend(l geom.Link, d DMADesc) (*Transfer, error) {
	lu, err := s.linkUnit(l)
	if err != nil {
		return nil, err
	}
	if err := d.validate(); err != nil {
		return nil, err
	}
	t := newTransfer(s.eng, l, d, true)
	lu.queueSend(t)
	return t, nil
}

// StartRecv programs a DMA receive on link l: incoming data words are
// stored at the descriptor's addresses. Completes when all words have
// landed in local memory.
func (s *SCU) StartRecv(l geom.Link, d DMADesc) (*Transfer, error) {
	lu, err := s.linkUnit(l)
	if err != nil {
		return nil, err
	}
	if err := d.validate(); err != nil {
		return nil, err
	}
	t := newTransfer(s.eng, l, d, false)
	lu.programRecv(t)
	return t, nil
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
// escalation: when a link gives up after MaxRetrains, the SCU raises
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
// this aggregate (like the machine-level one) is derived on demand.
func (s *SCU) Stats() Stats {
	var total Stats
	for _, lu := range s.links {
		if lu != nil {
			total.Add(&lu.stats)
		}
	}
	return total
}

// LinkStats returns the counters of a single link.
func (s *SCU) LinkStats(l geom.Link) Stats {
	if lu := s.links[geom.LinkIndex(l)]; lu != nil {
		return lu.stats
	}
	return Stats{}
}

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
func (s *SCU) LinkHists(l geom.Link) *LinkHists {
	if lu := s.links[geom.LinkIndex(l)]; lu != nil {
		return lu.hist
	}
	return nil
}

// Checksums returns the transmit-side and receive-side end-of-link
// checksums for link l: the transmit sum covers words sent toward the
// (dim,dir) neighbour, the receive sum covers words accepted from it.
// Comparing the transmit sum with the neighbour's opposite-link receive
// sum confirms no erroneous data was exchanged (§2.2).
func (s *SCU) Checksums(l geom.Link) (tx, rx scupkt.Checksum) {
	if lu := s.links[geom.LinkIndex(l)]; lu != nil {
		return lu.txSum, lu.rxSum
	}
	return
}

// Engine returns the event engine the SCU runs on.
func (s *SCU) Engine() *event.Engine { return s.eng }

// Clock returns the configured link clock.
func (s *SCU) Clock() event.Hz { return s.cfg.Clock }
