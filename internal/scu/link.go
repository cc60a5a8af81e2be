package scu

import (
	"errors"
	"fmt"

	"qcdoc/internal/event"
	"qcdoc/internal/geom"
	"qcdoc/internal/hssl"
	"qcdoc/internal/scupkt"
)

// pendingWord is a transmitted-but-unacknowledged data word held in the
// SCU's resend registers. sentAt is the last transmission time, kept
// for the in-flight/resend-gap histograms (telemetry only; the resend
// protocol never reads it).
type pendingWord struct {
	seq    int
	word   uint64
	sentAt event.Time
	t      *Transfer // owning send transfer; nil for injected global words
}

// Transmit-engine state labels (continuation tier).
const (
	txIdle    = "idle"        // nothing to send
	txStartup = "dma startup" // charging the DMA programming/fetch pipeline
	txRun     = "run"         // streaming words
	txWindow  = "window full" // a word is held, waiting for an ack
)

// linkUnit is the per-link hardware: a transmit engine feeding the
// outbound wire and a receive engine draining the inbound wire. Both are
// flat state machines on the engine's continuation tier — a 1024-node
// machine has 12288 of each, so they must cost no goroutines, no
// per-event channel handoffs, and (like the hardware, which has no
// allocator) no steady-state heap allocations per data word: packets
// encode into value frames, the resend and idle-receive registers are
// fixed arrays, and the recurring timers and pump wake-ups are pre-bound
// callbacks created once at Start. Acknowledgements for our
// transmissions arrive on the inbound wire, multiplexed with the
// neighbour's own traffic.
type linkUnit struct {
	scu  *SCU
	link geom.Link
	out  *hssl.Wire
	in   *hssl.Wire

	stats Stats
	hist  *LinkHists      // latency distributions; nil until enabled
	txSum scupkt.Checksum // data words transmitted (first transmissions)
	rxSum scupkt.Checksum // data words accepted in order

	// Transmit side. The engine advances via pump(): every entry point
	// that creates transmit work (a programmed send, an injected global
	// word, a window-opening ack, the end of the DMA startup charge)
	// calls pump, which sends words until it must park — idle, in the
	// startup charge, or with the window full.
	sm          *event.StateMachine
	ackTimer    *event.Timer    // lost-acknowledgement recovery
	supTimer    *event.Timer    // supervisor stop-and-wait recovery
	pumpPending bool            // a deferred pump event is queued
	txPending   fifo[*Transfer] // programmed send transfers
	cur         *Transfer       // transfer currently streaming
	curIdx      int             // next word index within cur
	held        bool            // a fetched word is in hand, awaiting window room
	heldWord    uint64
	heldT       *Transfer
	seqNext     int

	// injects holds global-operation words awaiting priority
	// transmission.
	injects fifo[uint64]

	// unacked is the hardware's resend register file: at most Window
	// (< SeqMod) words, a fixed ring.
	unacked     [scupkt.SeqMod]pendingWord
	unackedHead int
	unackedLen  int

	supPending bool
	supWord    uint64
	supQueue   fifo[uint64]

	// Link-recovery escalation ladder (ack timeout → retrain → dead).
	// timeoutStreak counts consecutive recovery timeouts since the last
	// acknowledgement progress; retrainCount counts consecutive
	// re-trainings since the last progress. Both reset whenever an ack
	// pops the window or a supervisor ack lands.
	timeoutStreak int
	retrainCount  int
	retraining    bool // outbound wire is re-training; transmissions suppressed
	dead          bool // link declared permanently failed; see fail

	// Receive side: a pure continuation — handleFrame runs directly in
	// each frame's arrival event.
	expect     int
	nakPending bool
	rxT        fifo[*Transfer] // programmed receive transfers
	rxProgress int             // words stored into the head of rxT

	// idleBuf is the idle-receive register file: up to Window words held
	// without acknowledgement until a receive is programmed.
	idleBuf     [scupkt.SeqMod]uint64
	idleBufHead int
	idleBufLen  int
}

// fifo is a head-indexed queue whose storage is reset, not freed, when
// it drains, so a link that carries transfer after transfer (or a long
// run of global operations) reuses one backing array.
type fifo[T any] struct {
	items []T
	head  int
}

func (q *fifo[T]) push(v T) { q.items = append(q.items, v) }
func (q *fifo[T]) len() int { return len(q.items) - q.head }
func (q *fifo[T]) peek() T  { return q.items[q.head] }

func (q *fifo[T]) pop() T {
	var zero T
	v := q.items[q.head]
	q.items[q.head] = zero // a popped transfer is not pinned by the queue
	q.head++
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	return v
}

func newLinkUnit(s *SCU, l geom.Link, out, in *hssl.Wire) *linkUnit {
	return &linkUnit{
		scu:  s,
		link: l,
		out:  out,
		in:   in,
	}
}

// String names the link's transmit state machine; only a
// DumpStateMachines formats it.
func (lu *linkUnit) String() string { return fmt.Sprintf("%s scu%v tx", lu.scu.name, lu.link) }

func (lu *linkUnit) start() {
	lu.sm = lu.scu.eng.NewStateMachine(lu, txIdle)
	lu.ackTimer = lu.scu.eng.NewTimer(lu.ackTimeout)
	lu.supTimer = lu.scu.eng.NewTimer(lu.supTimeout)
	lu.in.OnFrame(lu.handleFrame)
	if lu.injects.len() > 0 {
		lu.kick(txIdle) // drain anything injected before Start
	}
}

// sendPacket encodes and transmits one packet as a value frame, treating
// an untrained wire as an assembly error (the machine trains all links
// at boot, before the SCU engines start moving data). While the link is
// re-training or after it has been declared dead, transmissions are
// silently suppressed instead: every suppressed data word is still in
// the unacked ring (or covered by a stop-and-wait timer), so the window
// protocol re-issues it once the link is back — or never, if it isn't.
func (lu *linkUnit) sendPacket(p scupkt.Packet) {
	if lu.retraining || lu.dead {
		return
	}
	if _, err := lu.out.Send(p.Wire()); err != nil {
		panic(fmt.Sprintf("scu %s link %v: %v", lu.scu.name, lu.link, err))
	}
}

// --- Transmit engine ---------------------------------------------------

// queueSend programs a DMA send transfer and kicks the transmit engine.
func (lu *linkUnit) queueSend(t *Transfer) {
	lu.txPending.push(t)
	lu.kick(txIdle)
}

// inject queues a global-operation word for priority transmission.
func (lu *linkUnit) inject(w uint64) {
	lu.injects.push(w)
	lu.kick(txIdle)
}

// kick wakes the transmit engine with a deferred pump if it is parked in
// the given state: the once-per-transfer wake-ups (a programmed send, an
// injected global word, the end of a re-training). The one-event
// deferral lets the caller finish its own sends first — the frame order
// every pinned trace records; the per-word wake-up, the window-opening
// ack, pumps inline (handleAck). An engine that is already running,
// charging its startup pipeline, or parked elsewhere ignores the kick.
func (lu *linkUnit) kick(state string) {
	if lu.sm == nil || lu.pumpPending || lu.sm.State() != state {
		return
	}
	lu.pumpPending = true
	lu.scu.eng.AfterHandler(0, lu, evPump)
}

// The link unit is the handler of its own two transmit wake-ups, told
// apart by the event argument.
const (
	evPump    = iota // the deferred pump of a kick
	evStartup        // the end of the DMA startup charge
)

// HandleEvent runs a transmit wake-up.
func (lu *linkUnit) HandleEvent(ev uint64) {
	if ev == evPump {
		lu.pumpPending = false
	} else {
		lu.sm.Goto(txRun)
	}
	lu.pump()
}

// pump advances the transmit engine until it parks. Word order matches
// the hardware priorities: injected global-operation words preempt
// between the words of a bulk transfer; a word fetched from memory while
// the ack window is full stays in hand and goes out first when the
// window opens.
func (lu *linkUnit) pump() {
	if lu.sm.State() == txStartup {
		return // the startup timer will pump when the charge elapses
	}
	for {
		if !lu.held {
			switch {
			case lu.injects.len() > 0:
				lu.heldWord = lu.injects.pop()
				lu.heldT = nil
				lu.held = true
			case lu.cur != nil:
				// Fetch the next word of the streaming transfer.
				lu.heldWord = lu.scu.mem.ReadWord(lu.cur.Desc.Addr(lu.curIdx))
				lu.heldT = lu.cur
				lu.held = true
				lu.curIdx++
				if lu.curIdx == lu.cur.total {
					lu.cur = nil
					lu.curIdx = 0
				}
			case lu.txPending.len() > 0:
				// DMA programming and the fetch pipeline to the first bit
				// on the wire.
				lu.cur = lu.txPending.pop()
				lu.curIdx = 0
				lu.sm.Goto(txStartup)
				startup := lu.scu.cfg.Clock.Cycles(lu.scu.cfg.TxStartupCycles)
				lu.scu.eng.AfterHandler(startup, lu, evStartup)
				return
			default:
				lu.sm.Goto(txIdle)
				return
			}
		}
		if lu.unackedLen >= lu.scu.cfg.Window {
			lu.sm.Goto(txWindow)
			return // an ack will pump
		}
		lu.sendHeld()
	}
}

// sendHeld transmits the word in hand (window room guaranteed by pump).
func (lu *linkUnit) sendHeld() {
	seq := lu.seqNext
	lu.seqNext = (lu.seqNext + 1) % scupkt.SeqMod
	lu.unacked[(lu.unackedHead+lu.unackedLen)%scupkt.SeqMod] =
		pendingWord{seq: seq, word: lu.heldWord, sentAt: lu.scu.eng.Now(), t: lu.heldT}
	lu.unackedLen++
	lu.sendPacket(scupkt.Packet{Kind: scupkt.DataKind(seq), Payload: lu.heldWord})
	lu.txSum.Add(lu.heldWord)
	lu.stats.WordsSent++
	lu.held = false
	lu.heldT = nil
	if lu.unackedLen == 1 {
		lu.ackTimer.Arm(lu.scu.cfg.AckTimeout)
	}
}

// ackTimeout is the lost-acknowledgement recovery: if the oldest
// unacknowledged word has not been acked within AckTimeout, resend it
// and restart the clock. Every pop of the window head re-arms (or stops)
// the timer, which only moves its deadline (event.Timer), so this never
// runs for a word that was acknowledged. A streak of timeouts with no
// progress escalates to link re-training (see beginRetrain).
func (lu *linkUnit) ackTimeout() {
	if lu.unackedLen == 0 || lu.retraining || lu.dead {
		return
	}
	lu.timeoutStreak++
	if lu.scu.cfg.RetrainAfter > 0 && lu.timeoutStreak >= lu.scu.cfg.RetrainAfter {
		lu.beginRetrain()
		return
	}
	lu.resend(&lu.unacked[lu.unackedHead])
	lu.ackTimer.Arm(lu.scu.cfg.AckTimeout)
}

// resend retransmits one unacknowledged word, recording the gap since
// its last transmission (telemetry only; one nil test when disabled).
func (lu *linkUnit) resend(pw *pendingWord) {
	lu.sendPacket(scupkt.Packet{Kind: scupkt.DataKind(pw.seq), Payload: pw.word})
	lu.stats.Resends++
	now := lu.scu.eng.Now()
	if lu.hist != nil {
		lu.hist.ResendGap.Record(uint64(now - pw.sentAt))
	}
	pw.sentAt = now
}

// resendUnacked rewinds: every word still unacknowledged goes out again,
// in order.
func (lu *linkUnit) resendUnacked() {
	for i := 0; i < lu.unackedLen; i++ {
		lu.resend(&lu.unacked[(lu.unackedHead+i)%scupkt.SeqMod])
	}
}

// sendSupervisor transmits a supervisor word with stop-and-wait
// acknowledgement; further words queue behind it.
func (lu *linkUnit) sendSupervisor(w uint64) {
	if lu.supPending {
		lu.supQueue.push(w)
		return
	}
	lu.transmitSup(w)
}

func (lu *linkUnit) transmitSup(w uint64) {
	lu.supPending = true
	lu.supWord = w
	lu.sendPacket(scupkt.Packet{Kind: scupkt.Supervisor, Payload: w})
	lu.stats.SupsSent++
	lu.supTimer.Arm(lu.scu.cfg.AckTimeout)
}

// supTimeout resends the outstanding supervisor word (stop-and-wait
// recovery); the supervisor ack stops the timer. Supervisor timeouts
// feed the same escalation streak as data timeouts, so a link carrying
// only supervisor traffic still retrains and eventually fails.
func (lu *linkUnit) supTimeout() {
	if !lu.supPending || lu.retraining || lu.dead {
		return
	}
	lu.timeoutStreak++
	if lu.scu.cfg.RetrainAfter > 0 && lu.timeoutStreak >= lu.scu.cfg.RetrainAfter {
		lu.beginRetrain()
		return
	}
	lu.sendPacket(scupkt.Packet{Kind: scupkt.Supervisor, Payload: lu.supWord})
	lu.stats.Resends++
	lu.supTimer.Arm(lu.scu.cfg.AckTimeout)
}

// beginRetrain resets and re-trains the outbound wire: the §2.2
// low-level recovery for a link whose errors outlast the resend
// protocol. Transmissions are suppressed for the training time; when
// training completes, everything unacknowledged is re-issued. Retrains
// that keep producing no acknowledgement progress escalate to fail.
func (lu *linkUnit) beginRetrain() {
	lu.retrainCount++
	if lu.scu.cfg.MaxRetrains > 0 && lu.retrainCount > lu.scu.cfg.MaxRetrains {
		lu.fail()
		return
	}
	lu.stats.Retrains++
	lu.timeoutStreak = 0
	lu.retraining = true
	lu.ackTimer.Stop()
	lu.supTimer.Stop()
	lu.out.Reset()
	lu.out.TrainAsync(lu.retrainDone)
}

// retrainDone resumes the link after re-training: rewind-resend every
// unacknowledged data word on the fresh wire, re-issue any outstanding
// supervisor word, restart the recovery clocks, and release the
// transmit engine if the window parked it.
func (lu *linkUnit) retrainDone() {
	if lu.dead {
		return
	}
	lu.retraining = false
	lu.resendUnacked()
	if lu.unackedLen > 0 {
		lu.ackTimer.Arm(lu.scu.cfg.AckTimeout)
	}
	if lu.supPending {
		lu.sendPacket(scupkt.Packet{Kind: scupkt.Supervisor, Payload: lu.supWord})
		lu.stats.Resends++
		lu.supTimer.Arm(lu.scu.cfg.AckTimeout)
	}
	lu.kick(txWindow)
	lu.kick(txIdle)
}

// fail declares the link permanently dead: MaxRetrains re-trainings in
// a row produced no acknowledgement progress, so the hardware stops
// trying (a dead transmitter resending forever would only burn the
// wire) and escalates through the SCU's supervisor interrupt path.
func (lu *linkUnit) fail() {
	lu.dead = true
	lu.stats.LinkFailures++
	lu.ackTimer.Stop()
	lu.supTimer.Stop()
	lu.scu.raiseLinkFailure(lu.link)
}

// --- Receive engine ----------------------------------------------------

// handleFrame is the receive engine: it runs in the arrival event of
// every inbound frame, decoding the value frame in place.
func (lu *linkUnit) handleFrame(f hssl.Frame) {
	pkt, _, err := f.Decode()
	if err != nil {
		lu.handleCorrupt(err)
		return
	}
	switch {
	case pkt.Kind == scupkt.Ack:
		lu.handleAck(uint8(pkt.Payload))
	case pkt.Kind == scupkt.Supervisor:
		lu.handleSupervisor(pkt.Payload)
	case pkt.Kind == scupkt.PartIRQ:
		lu.scu.part.receive(lu.link, uint8(pkt.Payload))
	case pkt.Kind == scupkt.Idle:
		// Trained links exchange idles; nothing to do.
	default:
		seq, _ := pkt.Kind.DataSeq()
		lu.handleData(seq, pkt.Payload)
	}
}

func (lu *linkUnit) handleCorrupt(err error) {
	if errors.Is(err, scupkt.ErrParity) {
		lu.stats.ParityErrors++
	} else {
		lu.stats.HeaderErrors++
	}
	lu.sendNak()
}

// lastAccepted is the sequence number an ack or nak may carry: the
// newest in-order word that has reached memory. Words idle receive still
// holds are accepted but not yet acknowledgeable — an ack or nak that
// covered them would reopen the sender's window onto a full register
// file.
func (lu *linkUnit) lastAccepted() int {
	return (lu.expect + 2*scupkt.SeqMod - 1 - lu.idleBufLen) % scupkt.SeqMod
}

// sendNak requests a rewind-resend of everything unacknowledged. One nak
// per stall: repeated errors before the next in-order acceptance are
// suppressed to avoid redundant rewinds.
func (lu *linkUnit) sendNak() {
	if lu.nakPending {
		return
	}
	lu.nakPending = true
	flags := scupkt.AckNak | uint8(lu.lastAccepted())&scupkt.AckSeqMask
	lu.sendPacket(scupkt.Packet{Kind: scupkt.Ack, Payload: uint64(flags)})
	lu.stats.NaksSent++
}

// sendCumAck acknowledges everything stored so far.
func (lu *linkUnit) sendCumAck() {
	flags := uint8(lu.lastAccepted()) & scupkt.AckSeqMask
	lu.sendPacket(scupkt.Packet{Kind: scupkt.Ack, Payload: uint64(flags)})
	lu.stats.AcksSent++
}

func (lu *linkUnit) handleData(seq int, w uint64) {
	delta := (seq - lu.expect + scupkt.SeqMod) % scupkt.SeqMod
	if delta != 0 {
		lu.stats.Duplicates++
		if lu.idleBufLen > 0 {
			// Duplicates of held words while acks are withheld; stay silent
			// so the sender remains blocked (idle receive).
			return
		}
		if delta == scupkt.SeqMod-1 {
			// Duplicate of the last accepted word: its ack was lost, re-ack.
			lu.sendCumAck()
			return
		}
		// A gap: an earlier frame was corrupt. The nak for it is normally
		// already pending; this is the defensive fallback.
		lu.sendNak()
		return
	}

	// In-order word.
	lu.nakPending = false
	lu.expect = (lu.expect + 1) % scupkt.SeqMod
	lu.rxSum.Add(w)
	lu.stats.WordsReceived++

	if gs := lu.scu.globalIn[geom.LinkIndex(lu.link)]; gs >= 0 {
		lu.sendCumAck()
		lu.scu.globals[gs].receive(w)
		return
	}
	if lu.rxT.len() == 0 {
		// Idle receive: hold the word in an SCU register and withhold the
		// acknowledgement; the sender's window will block it after
		// Window words (§2.2).
		if lu.idleBufLen >= lu.scu.cfg.Window {
			panic(fmt.Sprintf("scu %s link %v: idle-receive overflow (window protocol violated)",
				lu.scu.name, lu.link))
		}
		lu.idleBuf[(lu.idleBufHead+lu.idleBufLen)%scupkt.SeqMod] = w
		lu.idleBufLen++
		return
	}
	lu.storeWord(w)
	lu.sendCumAck()
}

// popIdle removes the oldest idle-held word.
func (lu *linkUnit) popIdle() uint64 {
	w := lu.idleBuf[lu.idleBufHead]
	lu.idleBufHead = (lu.idleBufHead + 1) % scupkt.SeqMod
	lu.idleBufLen--
	return w
}

// storeWord lands an accepted word in local memory via the receive DMA.
func (lu *linkUnit) storeWord(w uint64) {
	t := lu.rxT.peek()
	lu.scu.mem.WriteWord(t.Desc.Addr(lu.rxProgress), w)
	lu.rxProgress++
	done := lu.rxProgress == t.total
	t.progress(lu.scu.eng, lu.scu.eng.Now()+lu.scu.rxStartup)
	if done {
		lu.rxT.pop()
		lu.rxProgress = 0
	}
}

// programRecv attaches a receive transfer; any idle-held words drain into
// it immediately and the withheld acknowledgement is released.
func (lu *linkUnit) programRecv(t *Transfer) {
	lu.rxT.push(t)
	drained := false
	for lu.idleBufLen > 0 && lu.rxT.len() > 0 {
		lu.storeWord(lu.popIdle())
		drained = true
	}
	if drained {
		lu.sendCumAck()
	}
}

func (lu *linkUnit) containsSeq(seq int) bool {
	for i := 0; i < lu.unackedLen; i++ {
		if lu.unacked[(lu.unackedHead+i)%scupkt.SeqMod].seq == seq {
			return true
		}
	}
	return false
}

func (lu *linkUnit) handleAck(flags uint8) {
	if flags&scupkt.AckSup != 0 {
		lu.supPending = false
		lu.supTimer.Stop()
		lu.timeoutStreak = 0
		lu.retrainCount = 0
		if lu.supQueue.len() > 0 {
			lu.transmitSup(lu.supQueue.pop())
		}
		return
	}
	a := int(flags & scupkt.AckSeqMask)
	opened := lu.containsSeq(a)
	if opened {
		// Acknowledgement progress resets the recovery escalation ladder.
		lu.timeoutStreak = 0
		lu.retrainCount = 0
		// Cumulative: pop everything up to and including a.
		for {
			pw := lu.unacked[lu.unackedHead]
			lu.unackedHead = (lu.unackedHead + 1) % scupkt.SeqMod
			lu.unackedLen--
			if lu.hist != nil {
				lu.hist.InFlight.Record(uint64(lu.scu.eng.Now() - pw.sentAt))
			}
			if pw.t != nil {
				pw.t.progress(lu.scu.eng, lu.scu.eng.Now())
			}
			if pw.seq == a {
				break
			}
		}
		// Every head pop restarts (or, with nothing left in flight,
		// stops) the lost-ack recovery clock.
		if lu.unackedLen > 0 {
			lu.ackTimer.Arm(lu.scu.cfg.AckTimeout)
		} else {
			lu.ackTimer.Stop()
		}
	}
	if flags&scupkt.AckNak != 0 {
		lu.resendUnacked() // the automatic hardware resend
	}
	// The window opened: release the held word, after any rewind, so the
	// wire carries the resends and then the new word.
	if opened && lu.sm.State() == txWindow {
		lu.pump()
	}
}

func (lu *linkUnit) handleSupervisor(w uint64) {
	lu.scu.lastSup[geom.LinkIndex(lu.link)] = w
	lu.stats.SupsReceived++
	lu.sendPacket(scupkt.Packet{Kind: scupkt.Ack, Payload: uint64(scupkt.AckSup)})
	lu.stats.AcksSent++
	if lu.scu.onSupervisor != nil {
		lu.scu.onSupervisor(lu.link, w)
	}
}

func (lu *linkUnit) sendPartIRQ(mask uint8) {
	lu.sendPacket(scupkt.Packet{Kind: scupkt.PartIRQ, Payload: uint64(mask)})
	lu.stats.PartIRQsSent++
}
